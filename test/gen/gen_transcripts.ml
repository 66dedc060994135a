let () = print_string (Test_support.Transcript_fixture.render ())
