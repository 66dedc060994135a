let () = print_string (Test_support.Msgnet_timing_fixture.render ())
