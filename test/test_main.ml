let () =
  Alcotest.run "grc"
    (Test_linalg.suites @ Test_lp.suites
     @ Test_milp.suites @ Test_search.suites @ Test_nn.suites
     @ Test_data.suites @ Test_cert.suites @ Test_encode.suites @ Test_attack.suites
     @ Test_plan.suites @ Test_control.suites @ Test_exp.suites
     @ Test_audit.suites @ Test_serve.suites @ Test_shard.suites
     @ Test_obs.suites @ Test_differential.suites)
