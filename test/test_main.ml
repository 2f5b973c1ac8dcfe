let () =
  Alcotest.run "hyqsat"
    (List.concat [ Test_sat.suite; Test_stats.suite; Test_cdcl.suite; Test_qubo.suite; Test_chimera.suite; Test_embed.suite; Test_anneal.suite; Test_supervisor.suite; Test_workload.suite; Test_hyqsat.suite; Test_simplify_drat.suite; Test_cardinality.suite; Test_optimize.suite; Test_integration.suite; Test_service.suite; Test_incremental.suite; Test_check.suite; Test_obs.suite; Test_server.suite; Test_properties.suite; Test_arena.suite; Test_json.suite; Test_local_search.suite ])
