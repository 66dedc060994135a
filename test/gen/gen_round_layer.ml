let () = print_string (Test_support.Round_layer_fixture.render ())
