open Consensus_poly
open Consensus_anxor
module Fcmp = Consensus_util.Fcmp
module Obs = Consensus_obs.Obs

(* Shared forced-tuple test: a marginal (or block mass) within Fcmp
   tolerance of 1 denotes a tuple present in every possible world.  Both
   Jaccard median algorithms and the sym-diff tree DP route through this one
   predicate so the independent and BID paths classify identically. *)
let forced_marginal m = Fcmp.geq m 1.

let algo_span name db f =
  Obs.with_span
    ~attrs:(fun () -> [ ("alts", Obs.Int (Db.num_alts db)) ])
    ("core.set." ^ name)
    f

type world = int list

(* ---------- symmetric difference ---------- *)

let expected_sym_diff db w =
  let n = Db.num_alts db in
  let in_w = Array.make n false in
  List.iter (fun i -> in_w.(i) <- true) w;
  let acc = ref 0. in
  for i = 0 to n - 1 do
    let m = Db.marginal db i in
    acc := !acc +. (if in_w.(i) then 1. -. m else m)
  done;
  !acc

let mean_sym_diff db =
  algo_span "mean_sym_diff" db @@ fun () ->
  let n = Db.num_alts db in
  List.init n Fun.id |> List.filter (fun i -> Db.marginal db i > 0.5)

let median_sym_diff db =
  algo_span "median_sym_diff" db @@ fun () ->
  (* Minimize Σ_{t∈W} (1 - 2 m_t) over possible worlds W: a leaf pays its
     inclusion gain; an xor node chooses its best child or the empty set
     when allowed; an and node sums its children.  Per node: the best cost
     over all realizable sets, its leaves, and whether the subtree can
     realize ∅.  Node ids are pre-order, so one sweep in descending order
     finishes every child before its parent; a child's leaves are dropped
     once its parent has read them. *)
  let m i = Db.marginal db i in
  let a = Db.arena db in
  let n = Arena.num_nodes a in
  let cost = Array.make n 0. and leaves = Array.make n [] and empty_ok = Array.make n false in
  for v = n - 1 downto 0 do
    let start = a.child_start.(v) and count = a.child_count.(v) in
    if Arena.is_leaf a v then begin
      let i = a.leaf_ix.(v) in
      cost.(v) <- 1. -. (2. *. m i);
      leaves.(v) <- [ i ]
    end
    else if Arena.kind a v = Arena.kind_xor then begin
      let total = ref 0. and child_empty = ref false in
      for j = 0 to count - 1 do
        let c = a.children.(start + j) in
        total := !total +. a.eprob.(c);
        if empty_ok.(c) then child_empty := true
      done;
      let e = (not (forced_marginal !total)) || !child_empty in
      (* If the node cannot realize ∅ it has at least one edge, so the loop
         below always finds a finite best. *)
      let best = ref (if e then 0. else infinity) and best_leaves = ref [] in
      for j = 0 to count - 1 do
        let c = a.children.(start + j) in
        if cost.(c) < !best then begin
          best := cost.(c);
          best_leaves := leaves.(c)
        end;
        leaves.(c) <- []
      done;
      cost.(v) <- !best;
      leaves.(v) <- !best_leaves;
      empty_ok.(v) <- e
    end
    else begin
      let sum = ref 0. and acc = ref [] and e = ref true in
      for j = 0 to count - 1 do
        let c = a.children.(start + j) in
        sum := !sum +. cost.(c);
        acc := List.rev_append leaves.(c) !acc;
        leaves.(c) <- [];
        if not empty_ok.(c) then e := false
      done;
      cost.(v) <- !sum;
      leaves.(v) <- !acc;
      empty_ok.(v) <- !e
    end
  done;
  List.sort compare leaves.(Arena.root a)

(* ---------- Jaccard ---------- *)

let expected_jaccard db w =
  let in_w = Array.make (Db.num_alts db) false in
  List.iter (fun i -> in_w.(i) <- true) w;
  let size_w = List.length w in
  let f =
    Genfunc.bivariate
      (fun i -> if in_w.(i) then Poly2.x else Poly2.y)
      (Db.arena db)
  in
  (* coefficient of x^i y^j: Pr(|pw ∩ W| = i ∧ |pw \ W| = j);
     d_J = (|W| - i + j) / (|W| + j), with 0/0 = 0. *)
  Poly2.fold
    (fun i j c acc ->
      let num = float_of_int (size_w - i + j) in
      let den = float_of_int (size_w + j) in
      if den = 0. then acc else acc +. (c *. num /. den))
    f 0.

let mean_jaccard db =
  if not (Db.is_independent db) then
    invalid_arg "Set_consensus.mean_jaccard: requires a tuple-independent database";
  algo_span "mean_jaccard" db @@ fun () ->
  let n = Db.num_alts db in
  let order = Array.init n Fun.id in
  Array.sort (fun i j -> Float.compare (Db.marginal db j) (Db.marginal db i)) order;
  (* Lemma 2: the mean world is one of the n+1 probability-sorted prefixes. *)
  let best = ref ([], expected_jaccard db []) in
  let prefix = ref [] in
  for i = 0 to n - 1 do
    prefix := order.(i) :: !prefix;
    let w = List.sort compare !prefix in
    let d = expected_jaccard db w in
    if d < snd !best then best := (w, d)
  done;
  fst !best

let median_jaccard db =
  if not (Db.is_independent db) then
    invalid_arg "Set_consensus.median_jaccard: requires a tuple-independent database";
  algo_span "median_jaccard" db @@ fun () ->
  let n = Db.num_alts db in
  let forced =
    List.init n Fun.id |> List.filter (fun i -> forced_marginal (Db.marginal db i))
  in
  let optional =
    List.init n Fun.id
    |> List.filter (fun i ->
           let m = Db.marginal db i in
           Fcmp.gt m 0. && not (forced_marginal m))
    |> List.sort (fun i j -> Float.compare (Db.marginal db j) (Db.marginal db i))
  in
  let best = ref (List.sort compare forced, expected_jaccard db forced) in
  let current = ref forced in
  List.iter
    (fun i ->
      current := i :: !current;
      let w = List.sort compare !current in
      let d = expected_jaccard db w in
      if d < snd !best then best := (w, d))
    optional;
  fst !best

let median_jaccard_bid db =
  let blocks =
    match Db.xor_blocks db with
    | Some blocks -> blocks
    | None -> invalid_arg "Set_consensus.median_jaccard_bid: requires a BID database"
  in
  algo_span "median_jaccard_bid" db @@ fun () ->
  (* Highest-probability alternative per xor block (first maximum wins): a
     block's leaves are mutually exclusive whatever their keys, so choosing
     per key could combine two alternatives no world holds together.
     Forced blocks (mass 1) are present in every world, so every candidate
     includes them. *)
  let m = Db.marginal db in
  let nb = Array.fold_left max (-1) blocks + 1 in
  let best = Array.make nb (-1) and mass = Array.make nb 0. in
  Array.iteri
    (fun l b ->
      mass.(b) <- mass.(b) +. m l;
      if best.(b) < 0 || m l > m best.(b) then best.(b) <- l)
    blocks;
  let forced, optional =
    List.init nb Fun.id
    |> List.filter (fun b -> best.(b) >= 0)
    |> List.partition (fun b -> forced_marginal mass.(b))
  in
  let base = List.map (Array.get best) forced in
  (* decreasing probability, ties by key *)
  let key l = (Db.alt db l).key in
  let optional_alts =
    List.map (Array.get best) optional
    |> List.sort (fun a b ->
           match Float.compare (m b) (m a) with 0 -> compare (key a) (key b) | c -> c)
  in
  let candidate w = List.sort compare w in
  let best = ref (candidate base, expected_jaccard db (candidate base)) in
  let current = ref base in
  List.iter
    (fun l ->
      current := l :: !current;
      let w = candidate !current in
      let d = expected_jaccard db w in
      if d < snd !best then best := (w, d))
    optional_alts;
  fst !best

(* ---------- enumeration oracles ---------- *)

let subsets n =
  if n > 20 then invalid_arg "Set_consensus: too many leaves for brute force";
  List.init (1 lsl n) (fun mask ->
      List.init n Fun.id |> List.filter (fun i -> mask land (1 lsl i) <> 0))

let brute_force_mean ~dist db =
  let candidates = subsets (Db.num_alts db) in
  List.fold_left
    (fun (bw, bd) w ->
      let d = dist db w in
      if d < bd then (w, d) else (bw, bd))
    ([], dist db []) candidates

let brute_force_median ~dist db =
  let worlds = Worlds.enumerate_merged (Db.arena db) in
  List.fold_left
    (fun acc (ids, p) ->
      if p <= 0. then acc
      else
        let d = dist db ids in
        match acc with
        | Some (_, bd) when bd <= d -> acc
        | _ -> Some (ids, d))
    None worlds
  |> Option.get

let sym_diff_lists w1 w2 =
  let module S = Set.Make (Int) in
  let s1 = S.of_list w1 and s2 = S.of_list w2 in
  S.cardinal (S.diff s1 s2) + S.cardinal (S.diff s2 s1)

let enum_expected_sym_diff db w =
  Worlds.enumerate (Db.arena db)
  |> List.fold_left
       (fun acc (p, pw) -> acc +. (p *. float_of_int (sym_diff_lists w pw)))
       0.

let enum_expected_jaccard db w =
  let module S = Set.Make (Int) in
  let sw = S.of_list w in
  Worlds.enumerate (Db.arena db)
  |> List.fold_left
       (fun acc (p, pw) ->
         let spw = S.of_list pw in
         let union = S.cardinal (S.union sw spw) in
         if union = 0 then acc
         else
           let diff = sym_diff_lists w pw in
           acc +. (p *. float_of_int diff /. float_of_int union))
       0.
