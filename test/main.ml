let () =
  Alcotest.run "dcs"
    [
      ("util", Test_util.suite);
      ("obs", Test_obs.suite);
      ("pool", Test_pool.suite);
      ("checkpoint", Test_checkpoint.suite);
      ("linalg", Test_linalg.suite);
      ("graph", Test_graph.suite);
      ("edge-order", Test_edge_order.suite);
      ("mincut", Test_mincut.suite);
      ("mincut-agreement", Test_mincut_agreement.suite);
      ("comm", Test_comm.suite);
      ("fault", Test_fault.suite);
      ("fault-golden", Test_fault_golden.suite);
      ("fuzz", Test_fuzz.suite);
      ("sketch", Test_sketch.suite);
      ("foreach_lb", Test_foreach_lb.suite);
      ("forall_lb", Test_forall_lb.suite);
      ("localquery", Test_localquery.suite);
      ("distributed", Test_distributed.suite);
      ("spectral", Test_spectral.suite);
      ("stream", Test_stream.suite);
    ]
