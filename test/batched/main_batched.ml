let () =
  Alcotest.run "dcs-batched"
    [
      ("kernels", Test_bkernels.suite);
      ("pool-batched", Test_bpool.suite);
      ("routing", Test_brouting.suite);
      ("supervised-domains", Test_bpool.supervised_suite);
    ]
