open Consensus_util
open Consensus_anxor
open Consensus
open Consensus_poly
module Gen = Consensus_workload.Gen

let check_float = Alcotest.(check (float 1e-6))
let rng () = Prng.create ~seed:70707 ()

let group_of (a : Db.alt) = int_of_float a.Db.value mod 3

let make_t db = Aggregate_tree.make db ~group:group_of ~num_groups:3

let test_mean_vs_enum () =
  let g = rng () in
  for _ = 1 to 12 do
    let db = Gen.clustering_db ~num_values:6 g (2 + Prng.int g 4) in
    let t = make_t db in
    let direct = Array.make 3 0. in
    Worlds.enumerate (Db.arena db)
    |> List.iter (fun (p, w) ->
           let c = Aggregate_tree.counts_of_world t (List.map (Db.alt db) w) in
           Array.iteri (fun v cv -> direct.(v) <- direct.(v) +. (p *. cv)) c);
    Array.iteri
      (fun v m -> check_float (Printf.sprintf "mean group %d" v) direct.(v) m)
      (Aggregate_tree.mean t)
  done

let test_expected_dist_vs_enum () =
  let g = rng () in
  for _ = 1 to 12 do
    let db = Gen.clustering_db ~num_values:6 g (2 + Prng.int g 4) in
    let t = make_t db in
    let candidates =
      [ Aggregate_tree.mean t; Array.make 3 0.; [| 1.; 2.; 0.5 |] ]
    in
    List.iter
      (fun c ->
        let direct =
          Worlds.expectation (Db.arena db) ~f:(fun w ->
              let counts = Aggregate_tree.counts_of_world t (List.map (Db.alt db) w) in
              let acc = ref 0. in
              Array.iteri (fun v cv -> acc := !acc +. ((cv -. c.(v)) ** 2.)) counts;
              !acc)
        in
        check_float "bias-variance under correlation" direct
          (Aggregate_tree.expected_sq_dist t c))
      candidates
  done

let test_correlation_changes_variance () =
  (* Two co-existing tuples in the same group: variance doubles compared to
     independence (covariance term). *)
  let alt v = { Db.key = v; Db.value = 0. } in
  let correlated =
    Db.create (Tree.xor [ (0.5, Tree.and_ [ Tree.leaf (alt 1); Tree.leaf (alt 2) ]) ])
  in
  let independent = Db.independent [ (1, 0., 0.5); (2, 0., 0.5) ] in
  let t_corr = Aggregate_tree.make correlated ~group:(fun _ -> 0) ~num_groups:1 in
  let t_ind = Aggregate_tree.make independent ~group:(fun _ -> 0) ~num_groups:1 in
  (* independent: Var = 2·0.25 = 0.5; correlated: Var(2·Bern(0.5)) = 1. *)
  check_float "independent variance" 0.5 (Aggregate_tree.variance t_ind);
  check_float "correlated variance" 1.0 (Aggregate_tree.variance t_corr)

let test_median_sampled_and_brute () =
  let g = rng () in
  for _ = 1 to 10 do
    let db = Gen.clustering_db ~num_values:6 g (2 + Prng.int g 4) in
    let t = make_t db in
    let brute, brute_d = Aggregate_tree.brute_force_median t in
    ignore brute;
    let sampled = Aggregate_tree.median_sampled g ~samples:300 t in
    let sampled_d = Aggregate_tree.expected_sq_dist t sampled in
    Alcotest.(check bool) "sampled >= brute" true (sampled_d >= brute_d -. 1e-9);
    Alcotest.(check bool) "sampled close on small instances" true
      (sampled_d <= brute_d +. 0.5)
  done

let test_joint_distribution () =
  let g = rng () in
  for _ = 1 to 8 do
    let db = Gen.clustering_db ~num_values:6 g (2 + Prng.int g 3) in
    let t = make_t db in
    let f = Aggregate_tree.joint_distribution t in
    check_float "distribution sums to 1" 1. (Mpoly.sum_coeffs f);
    (* spot-check each monomial against enumeration *)
    Mpoly.fold
      (fun mono coeff () ->
        let target = Array.init 3 (fun v -> Mpoly.mono_exponent mono v) in
        let direct =
          Worlds.enumerate (Db.arena db)
          |> List.fold_left
               (fun acc (p, w) ->
                 let c = Aggregate_tree.counts_of_world t (List.map (Db.alt db) w) in
                 if Array.for_all2 (fun a b -> int_of_float a = b) c target then
                   acc +. p
                 else acc)
               0.
        in
        check_float "joint count probability" direct coeff)
      f ()
  done

let test_reduces_to_independent_case () =
  (* On a row-stochastic BID instance the tree machinery must agree with
     Aggregate_consensus. *)
  let g = rng () in
  for _ = 1 to 8 do
    let n = 2 + Prng.int g 4 and m = 3 in
    let matrix = Gen.groupby_matrix g ~n ~m in
    let blocks =
      Array.to_list matrix
      |> List.mapi (fun i row ->
             ( i,
               Array.to_list row
               |> List.mapi (fun v p -> (p, float_of_int v))
               |> List.filter (fun (p, _) -> p > 0.) ))
    in
    let db = Db.bid blocks in
    let t =
      Aggregate_tree.make db
        ~group:(fun a -> int_of_float a.Db.value)
        ~num_groups:m
    in
    let inst = Aggregate_consensus.create matrix in
    Array.iteri
      (fun v mv -> check_float "means agree" (Aggregate_consensus.mean inst).(v) mv)
      (Aggregate_tree.mean t);
    check_float "variances agree" (Aggregate_consensus.variance inst)
      (Aggregate_tree.variance t);
    let c = Aggregate_tree.mean t in
    check_float "evaluators agree"
      (Aggregate_consensus.expected_sq_dist inst c)
      (Aggregate_tree.expected_sq_dist t c)
  done

let test_validation () =
  let db = Db.independent [ (0, 5., 0.5) ] in
  try
    ignore (Aggregate_tree.make db ~group:(fun _ -> 7) ~num_groups:3);
    Alcotest.fail "out-of-range group accepted"
  with Invalid_argument _ -> ()

let suite =
  [
    Alcotest.test_case "mean vs enumeration" `Quick test_mean_vs_enum;
    Alcotest.test_case "expected dist under correlation" `Quick test_expected_dist_vs_enum;
    Alcotest.test_case "correlation changes variance" `Quick test_correlation_changes_variance;
    Alcotest.test_case "median sampled vs brute" `Quick test_median_sampled_and_brute;
    Alcotest.test_case "joint distribution" `Quick test_joint_distribution;
    Alcotest.test_case "reduces to independent case" `Quick test_reduces_to_independent_case;
    Alcotest.test_case "validation" `Quick test_validation;
  ]
