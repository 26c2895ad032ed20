open Consensus_util
open Consensus_poly
open Consensus_anxor

let check_float = Alcotest.(check (float 1e-9))
let check_floatl = Alcotest.(check (float 1e-6))

let poly1_testable = Alcotest.testable Poly1.pp (fun p q -> Poly1.equal ~eps:1e-9 p q)

(* The two and/xor trees of Figure 1 of the paper. *)

let fig1_i () =
  (* Four BID blocks; the paper annotates per-block generating functions
     0.4+0.6x, 0.2+0.8x, x, x and the product 0.08x^2+0.44x^3+0.48x^4. *)
  Db.bid
    [
      (1, [ (0.1, 8.); (0.5, 2.) ]);
      (2, [ (0.4, 3.); (0.4, 4.) ]);
      (3, [ (0.2, 1.); (0.8, 9.) ]);
      (4, [ (0.5, 6.); (0.5, 5.) ]);
    ]

let fig1_iii () =
  (* Three fully-correlated possible worlds (Figure 1 (ii)/(iii)):
     pw1 = {(t3,6),(t2,5),(t1,1)} 0.3; pw2 = {(t3,9),(t1,7),(t4,0)} 0.3;
     pw3 = {(t2,8),(t4,4),(t5,3)} 0.4. *)
  let w prob alts =
    (prob, Tree.and_ (List.map (fun (k, v) -> Tree.leaf { Db.key = k; Db.value = v }) alts))
  in
  Db.create
    (Tree.xor
       [
         w 0.3 [ (3, 6.); (2, 5.); (1, 1.) ];
         w 0.3 [ (3, 9.); (1, 7.); (4, 0.) ];
         w 0.4 [ (2, 8.); (4, 4.); (5, 3.) ];
       ])

let test_figure1_size_distribution () =
  let db = fig1_i () in
  let f = Marginals.size_distribution db in
  Alcotest.check poly1_testable "0.08x^2+0.44x^3+0.48x^4"
    (Poly1.of_coeffs [| 0.; 0.; 0.08; 0.44; 0.48 |])
    f

let test_figure1_block_genfuncs () =
  (* Per-block annotations from Figure 1(i). *)
  let block ps =
    Db.arena (Db.bid [ (0, List.mapi (fun i p -> (p, float_of_int i)) ps) ])
  in
  let gf ps = Genfunc.univariate (fun _ -> Poly1.x) (block ps) in
  Alcotest.check poly1_testable "0.4+0.6x" (Poly1.of_coeffs [| 0.4; 0.6 |]) (gf [ 0.1; 0.5 ]);
  Alcotest.check poly1_testable "0.2+0.8x" (Poly1.of_coeffs [| 0.2; 0.8 |]) (gf [ 0.4; 0.4 ]);
  Alcotest.check poly1_testable "x" Poly1.x (gf [ 0.2; 0.8 ]);
  Alcotest.check poly1_testable "x" Poly1.x (gf [ 0.5; 0.5 ])

let test_figure1_rank () =
  (* Figure 1(iii): the coefficient of y (i.e. of x^0 y) is 0.3 =
     Pr(alternative (t3,6) is ranked first). *)
  let db = fig1_iii () in
  (* Locate the leaf (t3, 6.). *)
  let l36 =
    List.find (fun l -> (Db.alt db l).Db.value = 6.) (Db.alts_of_key db 3)
  in
  let dist = Marginals.rank_dist_alt db l36 ~k:5 in
  check_float "Pr(r(t3,6)=1)" 0.3 dist.(0);
  check_float "Pr(r(t3,6)=2)" 0. dist.(1);
  (* Key-level: t3 is ranked first in pw1 (score 6 top of {6,5,1}) and in
     pw2 (score 9 top of {9,7,0}). *)
  let d3 = Marginals.rank_dist db 3 ~k:3 in
  check_float "Pr(r(t3)=1)" 0.6 d3.(0);
  check_float "Pr(r(t3)=2)" 0. d3.(1);
  (* t1: rank 3 in pw1 ({6,5,1}), rank 2 in pw2 ({9,7,0}). *)
  let d1 = Marginals.rank_dist db 1 ~k:3 in
  check_float "Pr(r(t1)=2)" 0.3 d1.(1);
  check_float "Pr(r(t1)=3)" 0.3 d1.(2)

let test_marginals_figure1 () =
  let db = fig1_i () in
  let l = Db.alts_of_key db 1 in
  (match List.map (fun i -> Db.marginal db i) l with
  | [ p1; p2 ] ->
      check_float "t1 alt probs" 0.1 p1;
      check_float "t1 alt probs" 0.5 p2
  | _ -> Alcotest.fail "expected two alternatives");
  check_float "key marginal" 0.6 (Db.key_marginal db 1);
  check_float "forced key" 1.0 (Db.key_marginal db 3)

let test_enumerate_figure1_iii () =
  let db = fig1_iii () in
  let worlds = Worlds.enumerate (Db.arena db) in
  Alcotest.(check int) "three worlds" 3 (List.length worlds);
  let total = List.fold_left (fun acc (p, _) -> acc +. p) 0. worlds in
  check_float "probabilities sum to 1" 1. total;
  List.iter
    (fun (_, w) -> Alcotest.(check int) "world size 3" 3 (List.length w))
    worlds;
  (* pw1 is leaves 0..2, pw2 leaves 3..5: (t3,6) and (t4,0) never coexist,
     and every world is non-empty *)
  let prob = Worlds.world_probability (Db.arena db) in
  check_float "pw1" 0.3 (prob [ 2; 0; 1 ]);
  check_float "cross-world impossible" 0. (prob [ 0; 5 ]);
  check_float "empty impossible here" 0. (prob [])

(* ---------- Tree structure ---------- *)

let test_tree_validation () =
  Alcotest.check_raises "negative prob"
    (Invalid_argument "Tree.xor: edge probability must be a non-negative float")
    (fun () -> ignore (Tree.xor [ (-0.1, Tree.leaf 0) ]));
  (try
     ignore (Tree.xor [ (0.7, Tree.leaf 0); (0.5, Tree.leaf 1) ]);
     Alcotest.fail "sum > 1 accepted"
   with Invalid_argument _ -> ());
  (* zero-probability edges dropped *)
  match Tree.xor [ (0., Tree.leaf 0); (0.5, Tree.leaf 1) ] with
  | Tree.Xor [ (p, Tree.Leaf 1) ] -> check_float "kept edge" 0.5 p
  | _ -> Alcotest.fail "expected single-edge xor"

let test_tree_shape () =
  let t = Tree.independent [ (0.5, 'a'); (0.3, 'b') ] in
  Alcotest.(check int) "leaves" 2 (Tree.num_leaves t);
  Alcotest.(check (list char)) "leaf order" [ 'a'; 'b' ] (Tree.leaves t);
  Alcotest.(check int) "depth" 2 (Tree.depth t);
  Alcotest.(check int) "nodes" 5 (Tree.num_nodes t);
  let it, payloads = Tree.index t in
  Alcotest.(check (list int)) "indices" [ 0; 1 ] (Tree.leaves it);
  Alcotest.(check (array char)) "payloads" [| 'a'; 'b' |] payloads

let test_tree_key_constraint () =
  let bad =
    Tree.and_ [ Tree.leaf { Db.key = 1; value = 1. }; Tree.leaf { Db.key = 1; value = 2. } ]
  in
  let arena_of t = Arena.of_tree ~key:(fun a -> a.Db.key) ~value:(fun a -> a.Db.value) t in
  (match Arena.check_keys (arena_of bad) with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "key violation not detected");
  (try
     ignore (Db.create bad);
     Alcotest.fail "Db.create accepted key violation"
   with Invalid_argument _ -> ());
  let good =
    Tree.xor
      [
        (0.5, Tree.leaf { Db.key = 1; value = 1. });
        (0.4, Tree.leaf { Db.key = 1; value = 2. });
      ]
  in
  match Arena.check_keys (arena_of good) with
  | Ok () -> ignore (Db.create good)
  | Error e -> Alcotest.fail e

let test_count_worlds () =
  let t = Tree.independent [ (0.5, 0); (0.5, 1); (0.5, 2) ] in
  check_float "2^3 worlds" 8. (Tree.count_worlds t);
  let t2 = Tree.bid [ [ (0.5, 0); (0.5, 1) ]; [ (0.3, 2) ] ] in
  (* first block: 2 worlds (no residual); second: 2 (alt or nothing) *)
  check_float "4 worlds" 4. (Tree.count_worlds t2)

let test_filter_leaves () =
  let t = Tree.bid [ [ (0.5, 1); (0.5, 2) ]; [ (0.3, 3) ] ] in
  let t' = Tree.filter_leaves (fun v -> v >= 2) t in
  Alcotest.(check (list int)) "kept" [ 2; 3 ] (Tree.leaves t');
  (* The distribution of the remaining leaves is preserved: leaf 0 of t' is
     2, leaf 1 is 3. *)
  let m = Arena.marginals (Arena.of_tree ~key:Fun.id ~value:(fun _ -> 0.) t') in
  check_float "p(2)" 0.5 m.(0);
  check_float "p(3)" 0.3 m.(1)

(* ---------- Worlds: enumeration consistency ---------- *)

let rng () = Prng.create ~seed:12345 ()

let test_enumeration_total_probability () =
  let g = rng () in
  for _ = 1 to 20 do
    let t = Consensus_workload.Gen.random_tree g (4 + Prng.int g 6) in
    let worlds = Worlds.enumerate (Db.arena (Db.create t)) in
    let total = List.fold_left (fun acc (p, _) -> acc +. p) 0. worlds in
    check_floatl "total probability 1" 1. total
  done

let test_size_distribution_vs_enumeration () =
  let g = rng () in
  for _ = 1 to 20 do
    let db = Db.create (Consensus_workload.Gen.random_tree g (3 + Prng.int g 7)) in
    let f = Marginals.size_distribution db in
    let worlds = Worlds.enumerate (Db.arena db) in
    for size = 0 to Poly1.degree f do
      let direct =
        List.fold_left
          (fun acc (p, w) -> if List.length w = size then acc +. p else acc)
          0. worlds
      in
      check_floatl "Pr(|pw|=i) matches" direct (Poly1.coeff f size)
    done
  done

let test_subset_size_distribution () =
  let g = rng () in
  for _ = 1 to 10 do
    let a = Db.arena (Db.create (Consensus_workload.Gen.random_tree g 8)) in
    let mem i = i mod 2 = 0 in
    let f = Genfunc.subset_size_distribution mem a in
    let worlds = Worlds.enumerate a in
    for c = 0 to Poly1.degree f do
      let direct =
        List.fold_left
          (fun acc (p, w) ->
            if List.length (List.filter mem w) = c then acc +. p else acc)
          0. worlds
      in
      check_floatl "Pr(|pw ∩ S|=c)" direct (Poly1.coeff f c)
    done
  done

let test_marginals_vs_enumeration () =
  let g = rng () in
  for _ = 1 to 20 do
    let db = Consensus_workload.Gen.random_tree_db g (3 + Prng.int g 8) in
    let worlds = Worlds.enumerate (Db.arena db) in
    for l = 0 to Db.num_alts db - 1 do
      let direct =
        List.fold_left
          (fun acc (p, w) -> if List.mem l w then acc +. p else acc)
          0. worlds
      in
      check_floatl "marginal" direct (Db.marginal db l)
    done
  done

let test_pair_marginal_vs_enumeration () =
  let g = rng () in
  for _ = 1 to 15 do
    let db = Consensus_workload.Gen.random_tree_db g (3 + Prng.int g 7) in
    let worlds = Worlds.enumerate (Db.arena db) in
    let n = Db.num_alts db in
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        let direct =
          List.fold_left
            (fun acc (p, w) -> if List.mem i w && List.mem j w then acc +. p else acc)
            0. worlds
        in
        check_floatl "pair marginal" direct (Db.pair_marginal db i j);
        let direct_absent =
          List.fold_left
            (fun acc (p, w) ->
              if (not (List.mem i w)) && not (List.mem j w) then acc +. p else acc)
            0. worlds
        in
        check_floatl "pair absent" direct_absent (Db.pair_absent db i j)
      done
    done
  done

let test_sampling_matches_marginals () =
  let g = rng () in
  let db = Consensus_workload.Gen.random_tree_db g 6 in
  let n = 20_000 in
  let counts = Array.make (Db.num_alts db) 0 in
  for _ = 1 to n do
    let w = Worlds.sample g (Db.arena db) in
    List.iter (fun l -> counts.(l) <- counts.(l) + 1) w
  done;
  Array.iteri
    (fun l c ->
      let freq = float_of_int c /. float_of_int n in
      Alcotest.(check bool)
        (Printf.sprintf "sampled freq of leaf %d" l)
        true
        (abs_float (freq -. Db.marginal db l) < 0.015))
    counts

(* Golden seeded draws: the sampler makes one uniform draw per visited xor
   node, in depth-first order, and seeded answers (sampled top-k, cluster
   best-of-worlds, aggregate medians) depend on that order.  The values pin
   it for the first 20 draws of two seeds on a BID database and on a nested
   keyed tree. *)
let test_sampling_golden () =
  let bid = Consensus_workload.Gen.bid_db (Prng.create ~seed:5 ()) 6 in
  let keyed = Consensus_workload.Gen.random_keyed_tree (Prng.create ~seed:6 ()) 10 in
  let draws db seed =
    let g = Prng.create ~seed () in
    List.init 20 (fun _ -> Worlds.sample g (Db.arena db))
  in
  let check name expected actual =
    Alcotest.(check (list (list int))) name expected actual
  in
  check "bid seed 1"
    [ [ 2; 5; 6; 10 ]; [ 0; 2 ]; [ 3; 5; 7 ]; [ 0; 2; 5; 11 ]; [ 1; 2; 5 ];
      [ 0; 3; 5; 6; 11 ]; [ 0; 3; 5; 7; 10 ]; [ 1; 3; 4; 6 ]; [ 2; 4 ]; [ 2; 6 ];
      [ 3; 5 ]; [ 3; 5; 8 ]; [ 1; 2; 4; 8 ]; [ 2; 5; 7 ]; [ 1; 3; 4 ]; [ 0; 2 ];
      [ 3; 8; 10 ]; [ 0; 2; 8; 11 ]; [ 0; 2; 4 ]; [ 2; 9; 11 ] ]
    (draws bid 1);
  check "bid seed 2"
    [ [ 0; 3; 4; 11 ]; [ 2; 11 ]; [ 3; 6 ]; [ 1; 2; 4; 8 ]; [ 2; 4; 6; 9 ];
      [ 1; 2; 6; 7; 11 ]; [ 0; 3; 5; 6 ]; [ 0; 3; 11 ]; [ 0; 3; 4; 7; 11 ];
      [ 0; 2; 5; 11 ]; [ 0; 3; 5; 6 ]; [ 2; 6; 9; 11 ]; [ 0; 2; 5; 6 ]; [ 2; 6; 9 ];
      [ 2; 8 ]; [ 2; 7 ]; [ 3 ]; [ 2; 6 ]; [ 0; 2; 4; 11 ]; [ 0; 2; 4; 9; 11 ] ]
    (draws bid 2);
  check "keyed seed 1"
    [ []; [ 8 ]; []; []; []; []; [ 5 ]; [ 8 ]; []; []; []; []; [ 5 ]; []; [ 9 ];
      [ 6 ]; []; [ 2; 4 ]; []; [] ]
    (draws keyed 1);
  check "keyed seed 2"
    [ []; []; [ 3; 4 ]; []; []; []; []; [ 5 ]; [ 4 ]; [ 1; 4 ]; []; []; [ 2; 4 ];
      [ 6 ]; [ 9 ]; []; [ 4 ]; []; [ 5 ]; [] ]
    (draws keyed 2);
  let best_of_worlds d =
    let module C = Consensus.Cluster_consensus in
    C.best_of_worlds (Prng.create ~seed:3 ()) ~samples:8 (C.make d) |> Array.to_list
  in
  Alcotest.(check (list int)) "bid best_of_worlds" [ 5; 0; 1; 2; 3; 4 ]
    (best_of_worlds bid);
  Alcotest.(check (list int)) "keyed best_of_worlds" [ 0; 0; 0; 0; 0; 0; 0; 0; 0 ]
    (best_of_worlds keyed)

let test_enumerate_merged () =
  (* Two xor branches yielding the same (empty) world merge. *)
  let t = Tree.xor [ (0.3, Tree.and_ []); (0.2, Tree.and_ []) ] in
  let t = Arena.of_tree ~key:Fun.id ~value:(fun _ -> 0.) t in
  let merged = Worlds.enumerate_merged t in
  Alcotest.(check int) "one merged world" 1 (List.length merged);
  (match merged with
  | [ (ids, p) ] ->
      Alcotest.(check (list int)) "empty world" [] ids;
      check_float "merged probability" 1.0 p
  | _ -> Alcotest.fail "unexpected");
  check_float "world_probability" 1.0 (Worlds.world_probability t [])

let test_expectation_and_monte_carlo () =
  let g = rng () in
  let db = Db.create (Consensus_workload.Gen.random_tree g 7) in
  let f w = float_of_int (List.length w) in
  let exact = Worlds.expectation (Db.arena db) ~f in
  let mc = Worlds.monte_carlo g ~samples:30_000 (Db.arena db) ~f in
  Alcotest.(check bool) "MC close to exact" true (abs_float (exact -. mc) < 0.1);
  check_floatl "matches genfunc expectation" exact
    (Poly1.expectation (Marginals.size_distribution db))

(* ---------- Rank distributions ---------- *)

(* Enumerated worlds as (leaf index, payload) lists. *)
let indexed_worlds db =
  Worlds.enumerate (Db.arena db)
  |> List.map (fun (p, w) -> (p, List.map (fun i -> (i, Db.alt db i)) w))

let rank_of_key w (alts : (int * Db.alt) list) key =
  (* Rank of [key] in the enumerated world [w] of (index, alt) leaves. *)
  let present = List.filter (fun (i, _) -> List.mem_assoc i alts |> ignore; true) w in
  ignore present;
  match List.find_opt (fun (_, (a : Db.alt)) -> a.Db.key = key) w with
  | None -> None
  | Some (_, a) ->
      let higher =
        List.length (List.filter (fun (_, (b : Db.alt)) -> b.Db.value > a.Db.value) w)
      in
      Some (higher + 1)

let test_rank_dist_vs_enumeration () =
  let g = rng () in
  for iter = 1 to 15 do
    let db =
      if iter mod 2 = 0 then Consensus_workload.Gen.random_tree_db g (3 + Prng.int g 6)
      else Consensus_workload.Gen.random_keyed_tree g (3 + Prng.int g 6)
    in
    let worlds = indexed_worlds db in
    let k = min 4 (Db.num_alts db) in
    Array.iter
      (fun key ->
        let dist = Marginals.rank_dist db key ~k in
        for j = 1 to k do
          let direct =
            List.fold_left
              (fun acc (p, w) ->
                match rank_of_key w [] key with
                | Some r when r = j -> acc +. p
                | _ -> acc)
              0. worlds
          in
          check_floatl
            (Printf.sprintf "Pr(r(%d)=%d)" key j)
            direct
            dist.(j - 1)
        done;
        let leq = Marginals.rank_leq db key ~k in
        let direct_leq =
          List.fold_left
            (fun acc (p, w) ->
              match rank_of_key w [] key with
              | Some r when r <= k -> acc +. p
              | _ -> acc)
            0. worlds
        in
        check_floatl "Pr(r<=k)" direct_leq leq)
      (Db.keys db)
  done

let test_rank_table_fast_matches_slow () =
  let g = rng () in
  for iter = 1 to 15 do
    (* forced blocks (mass 1) exercise the ill-conditioned-division
       fallback; multi-alternative blocks exercise the divide-out path *)
    let db =
      if iter mod 2 = 0 then Consensus_workload.Gen.independent_db g (3 + Prng.int g 10)
      else Consensus_workload.Gen.bid_db ~max_alts:3 ~forced_fraction:0.5 g (2 + Prng.int g 6)
    in
    let k = 1 + Prng.int g 4 in
    let fast = Marginals.rank_table db ~k in
    List.iter
      (fun (key, dist) ->
        let direct = Marginals.rank_dist db key ~k in
        Array.iteri
          (fun j p ->
            check_floatl (Printf.sprintf "fast Pr(r(%d)=%d)" key (j + 1)) direct.(j) p)
          dist)
      fast
  done;
  (* x-tuples: BID-shaped blocks over DISTINCT keys; block-mates are
     mutually exclusive across keys (the bug class E7 caught: per-key mass
     tracking breaks here) *)
  for _ = 1 to 10 do
    let n_blocks = 2 + Prng.int g 3 in
    let next_key = ref 0 in
    let blocks =
      List.init n_blocks (fun _ ->
          let c = 1 + Prng.int g 3 in
          let raw = List.init c (fun _ -> 0.1 +. Prng.uniform g) in
          let total = List.fold_left ( +. ) 0. raw in
          let budget = 0.3 +. Prng.float g 0.65 in
          List.map
            (fun r ->
              let key = !next_key in
              incr next_key;
              ( r /. total *. budget,
                { Db.key; value = Prng.float g 100. } ))
            raw)
    in
    let db = Db.create (Tree.bid blocks) in
    if Db.scores_distinct db then begin
      let k = 1 + Prng.int g 3 in
      let fast = Marginals.rank_table db ~k in
      List.iter
        (fun (key, dist) ->
          let direct = Marginals.rank_dist db key ~k in
          Array.iteri
            (fun j p ->
              check_floatl
                (Printf.sprintf "x-tuple Pr(r(%d)=%d)" key (j + 1))
                direct.(j) p)
            dist)
        fast
    end
  done;
  (* the sweep rejects correlated trees and k <= 0, naming itself *)
  let rejects what msg f =
    match f () with
    | _ -> Alcotest.failf "%s accepted" what
    | exception Invalid_argument m -> Alcotest.(check string) what msg m
  in
  rejects "non-BID tree" "Marginals.rank_table_dense: requires a BID-shaped database"
    (fun () -> Marginals.rank_table_dense (fig1_iii ()) ~k:2);
  rejects "k = 0" "Marginals.rank_table_dense: k must be positive" (fun () ->
      Marginals.rank_table_dense (fig1_i ()) ~k:0)

let test_topk_pair_vs_enumeration () =
  let g = rng () in
  for _ = 1 to 10 do
    let db = Consensus_workload.Gen.random_tree_db g (4 + Prng.int g 5) in
    let worlds = indexed_worlds db in
    let keys = Db.keys db in
    let k = 3 in
    Array.iter
      (fun k1 ->
        Array.iter
          (fun k2 ->
            if k1 < k2 then begin
              let joint = Marginals.topk_pair_prob db k1 k2 ~k in
              let direct =
                List.fold_left
                  (fun acc (p, w) ->
                    match (rank_of_key w [] k1, rank_of_key w [] k2) with
                    | Some r1, Some r2 when r1 <= k && r2 <= k -> acc +. p
                    | _ -> acc)
                  0. worlds
              in
              check_floatl "joint top-k" direct joint
            end)
          keys)
      keys
  done

let test_beats_vs_enumeration () =
  let g = rng () in
  for iter = 1 to 10 do
    let db =
      if iter mod 2 = 0 then Consensus_workload.Gen.random_tree_db g (3 + Prng.int g 6)
      else Consensus_workload.Gen.random_keyed_tree g (4 + Prng.int g 5)
    in
    let worlds = indexed_worlds db in
    let keys = Db.keys db in
    Array.iter
      (fun k1 ->
        Array.iter
          (fun k2 ->
            if k1 <> k2 then begin
              let b = Marginals.beats db k1 k2 in
              let direct =
                List.fold_left
                  (fun acc (p, w) ->
                    match (rank_of_key w [] k1, rank_of_key w [] k2) with
                    | Some r1, Some r2 when r1 < r2 -> acc +. p
                    | Some _, None -> acc +. p
                    | _ -> acc)
                  0. worlds
              in
              check_floatl "beats" direct b
            end)
          keys)
      keys
  done

let test_expected_rank_vs_enumeration () =
  let g = rng () in
  for _ = 1 to 10 do
    let db = Consensus_workload.Gen.random_tree_db g (3 + Prng.int g 6) in
    let worlds = indexed_worlds db in
    Array.iter
      (fun key ->
        let er = Marginals.expected_rank db key in
        let direct =
          List.fold_left
            (fun acc (p, w) ->
              match rank_of_key w [] key with
              | Some r -> acc +. (p *. float_of_int (r - 1))
              | None -> acc +. (p *. float_of_int (List.length w)))
            0. worlds
        in
        check_floatl "expected rank" direct er)
      (Db.keys db)
  done

let test_expected_value () =
  let db = fig1_i () in
  (* key 1: 0.1*8 + 0.5*2 = 1.8 *)
  check_float "expected value" 1.8 (Marginals.expected_value db 1)

let test_full_rank_dist () =
  let g = rng () in
  let db = Consensus_workload.Gen.random_tree_db g 6 in
  (* Full distribution sums to the leaf marginal. *)
  for l = 0 to Db.num_alts db - 1 do
    let d = Marginals.full_rank_dist_alt db l in
    check_floatl "sums to marginal" (Db.marginal db l) (Array.fold_left ( +. ) 0. d)
  done

(* ---------- Genfunc engines cross-validation ---------- *)

let test_bipoly_engine_vs_bivariate () =
  let g = rng () in
  for _ = 1 to 10 do
    let a = Db.arena (Consensus_workload.Gen.random_tree_db g 7) in
    (* y on leaf 0, x on odd leaves. *)
    let bip =
      Genfunc.bipoly
        (fun i ->
          if i = 0 then Bipoly.y
          else if i mod 2 = 1 then Bipoly.x
          else Bipoly.one)
        a
    in
    let p2 =
      Genfunc.bivariate
        (fun i ->
          if i = 0 then Poly2.y
          else if i mod 2 = 1 then Poly2.x
          else Poly2.one)
        a
    in
    for d = 0 to max (Poly1.degree bip.Bipoly.a) (Poly2.degree_x p2) do
      check_floatl "y^0 parts agree" (Poly2.coeff p2 d 0) (Poly1.coeff bip.Bipoly.a d);
      check_floatl "y^1 parts agree" (Poly2.coeff p2 d 1) (Poly1.coeff bip.Bipoly.b d)
    done
  done

let test_mpoly_engine_vs_enumeration () =
  let g = rng () in
  for _ = 1 to 5 do
    let db = Consensus_workload.Gen.random_tree_db g 6 in
    (* Three variables: leaf i gets variable i mod 3. *)
    let f = Genfunc.mpoly (fun i -> Mpoly.var (i mod 3)) (Db.arena db) in
    let worlds = indexed_worlds db in
    (* Check a handful of monomials. *)
    Mpoly.fold
      (fun mono c () ->
        let counts = [ 0; 1; 2 ] |> List.map (fun v -> Mpoly.mono_exponent mono v) in
        let direct =
          List.fold_left
            (fun acc (p, w) ->
              let cs =
                [ 0; 1; 2 ]
                |> List.map (fun v ->
                       List.length (List.filter (fun (i, _) -> i mod 3 = v) w))
              in
              if cs = counts then acc +. p else acc)
            0. worlds
        in
        check_floatl "mpoly coefficient" direct c)
      f ()
  done

let suite =
  [
    Alcotest.test_case "figure 1(i) size distribution" `Quick test_figure1_size_distribution;
    Alcotest.test_case "figure 1(i) block genfuncs" `Quick test_figure1_block_genfuncs;
    Alcotest.test_case "figure 1(iii) rank probabilities" `Quick test_figure1_rank;
    Alcotest.test_case "figure 1 marginals" `Quick test_marginals_figure1;
    Alcotest.test_case "figure 1(iii) enumeration" `Quick test_enumerate_figure1_iii;
    Alcotest.test_case "tree validation" `Quick test_tree_validation;
    Alcotest.test_case "tree shape accessors" `Quick test_tree_shape;
    Alcotest.test_case "key constraint" `Quick test_tree_key_constraint;
    Alcotest.test_case "count worlds" `Quick test_count_worlds;
    Alcotest.test_case "filter leaves" `Quick test_filter_leaves;
    Alcotest.test_case "enumeration total probability" `Quick test_enumeration_total_probability;
    Alcotest.test_case "size distribution vs enumeration" `Quick test_size_distribution_vs_enumeration;
    Alcotest.test_case "subset size distribution" `Quick test_subset_size_distribution;
    Alcotest.test_case "marginals vs enumeration" `Quick test_marginals_vs_enumeration;
    Alcotest.test_case "pair marginals vs enumeration" `Quick test_pair_marginal_vs_enumeration;
    Alcotest.test_case "sampling matches marginals" `Slow test_sampling_matches_marginals;
    Alcotest.test_case "sampling golden draws" `Quick test_sampling_golden;
    Alcotest.test_case "enumerate merged" `Quick test_enumerate_merged;
    Alcotest.test_case "expectation and monte carlo" `Slow test_expectation_and_monte_carlo;
    Alcotest.test_case "rank dist vs enumeration" `Quick test_rank_dist_vs_enumeration;
    Alcotest.test_case "rank table fast = slow" `Quick test_rank_table_fast_matches_slow;
    Alcotest.test_case "top-k pair vs enumeration" `Quick test_topk_pair_vs_enumeration;
    Alcotest.test_case "beats vs enumeration" `Quick test_beats_vs_enumeration;
    Alcotest.test_case "expected rank vs enumeration" `Quick test_expected_rank_vs_enumeration;
    Alcotest.test_case "expected value" `Quick test_expected_value;
    Alcotest.test_case "full rank dist" `Quick test_full_rank_dist;
    Alcotest.test_case "bipoly engine vs bivariate" `Quick test_bipoly_engine_vs_bivariate;
    Alcotest.test_case "mpoly engine vs enumeration" `Quick test_mpoly_engine_vs_enumeration;
  ]
