type scale = [ `Small | `Paper ]

type t = {
  id : string;
  domain : string;
  name : string;
  problems : int;
  generate : Stats.Rng.t -> scale -> Sat.Cnf.t;
  generate_weighted : (Stats.Rng.t -> scale -> Sat.Wcnf.t) option;
}

let gc id name problems ~paper ~small =
  let size scale = match scale with `Paper -> paper | `Small -> small in
  {
    id;
    domain = "Graph Coloring";
    name;
    problems;
    generate = (fun rng scale -> Graph_coloring.flat rng (size scale));
    generate_weighted = Some (fun rng scale -> Graph_coloring.flat_weighted rng (size scale));
  }

let ai id name problems ~paper ~small =
  {
    id;
    domain = "Artificial Intelligence";
    name;
    problems;
    generate = (fun rng scale -> Uniform.uf rng (match scale with `Paper -> paper | `Small -> small));
    generate_weighted = None;
  }

let table1 =
  [
    gc "GC1" "Flat150-360" 100 ~paper:150 ~small:60;
    gc "GC2" "Flat175-417" 100 ~paper:175 ~small:80;
    gc "GC3" "Flat200-479" 100 ~paper:200 ~small:100;
    {
      id = "CFA";
      domain = "Circuit Fault Analysis";
      name = "SSA";
      problems = 4;
      generate =
        (fun rng scale ->
          match scale with
          | `Paper -> Circuit_fault.generate rng ~inputs:30 ~gates:300
          | `Small -> Circuit_fault.generate rng ~inputs:12 ~gates:160);
      generate_weighted = None;
    };
    {
      id = "BP";
      domain = "Block Planning";
      name = "Blocksworld";
      problems = 5;
      generate =
        (fun rng scale ->
          match scale with
          | `Paper -> Block_planning.generate rng ~blocks:7 ~steps:6
          | `Small -> Block_planning.generate rng ~blocks:4 ~steps:4);
      generate_weighted =
        Some
          (fun rng scale ->
            match scale with
            | `Paper -> Block_planning.generate_weighted rng ~blocks:7 ~steps:6
            | `Small -> Block_planning.generate_weighted rng ~blocks:4 ~steps:4);
    };
    {
      id = "II";
      domain = "Inductive Inference";
      name = "II";
      problems = 41;
      generate =
        (fun rng scale ->
          match scale with
          | `Paper -> Inductive_inference.generate rng ~attributes:24 ~terms:6 ~examples:100
          | `Small -> Inductive_inference.generate rng ~attributes:16 ~terms:4 ~examples:50);
      generate_weighted = None;
    };
    {
      id = "IF1";
      domain = "Integer Factorization";
      name = "EzFact";
      problems = 30;
      generate =
        (fun rng scale ->
          match scale with
          | `Paper -> Factoring.generate rng ~bits:8
          | `Small -> Factoring.generate rng ~bits:6);
      generate_weighted = None;
    };
    {
      id = "IF2";
      domain = "Integer Factorization";
      name = "Lisa";
      problems = 14;
      generate =
        (fun rng scale ->
          match scale with
          | `Paper -> Factoring.generate rng ~bits:10
          | `Small -> Factoring.generate rng ~bits:7);
      generate_weighted = None;
    };
    {
      id = "CRY";
      domain = "Cryptography";
      name = "Cmpadd";
      problems = 5;
      generate =
        (fun rng scale ->
          match scale with
          | `Paper -> Crypto.generate rng ~bits:16
          | `Small -> Crypto.generate rng ~bits:10);
      generate_weighted = None;
    };
    ai "AI1" "UF150-645" 100 ~paper:150 ~small:100;
    ai "AI2" "UF175-753" 100 ~paper:175 ~small:125;
    ai "AI3" "UF200-860" 100 ~paper:200 ~small:150;
    ai "AI4" "UF225-960" 100 ~paper:225 ~small:175;
    ai "AI5" "UF250-1065" 100 ~paper:250 ~small:200;
  ]

