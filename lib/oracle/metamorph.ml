open Consensus_anxor
module Api = Consensus.Api
module Prng = Consensus_util.Prng

(* Which distribution level a rewrite preserves.  [Leaf_set] rewrites keep
   the distribution over leaf index sets (world answers included);
   [Payload] rewrites only keep the distribution over payload multisets
   (split/merge twins), which duplicates scores — valid for clustering,
   whose answers depend on values alone. *)
type level = Leaf_set | Payload

type rewrite = {
  name : string;
  level : level;
  rw : Prng.t -> Db.alt Tree.t -> Db.alt Tree.t;
}

let name r = r.name

let relabel_keys rng tree =
  let keys =
    Tree.leaves tree
    |> List.map (fun (a : Db.alt) -> a.key)
    |> List.sort_uniq compare |> Array.of_list
  in
  let image = Array.copy keys in
  Prng.shuffle rng image;
  let map = Hashtbl.create (Array.length keys) in
  Array.iteri (fun i k -> Hashtbl.replace map k image.(i)) keys;
  Tree.map (fun (a : Db.alt) -> { a with key = Hashtbl.find map a.key }) tree

let all =
  [
    { name = "relabel-keys"; level = Leaf_set; rw = relabel_keys };
    { name = "shuffle-siblings"; level = Leaf_set; rw = Transform.shuffle_siblings };
    { name = "simplify"; level = Leaf_set; rw = (fun _ t -> Transform.simplify t) };
    {
      name = "pad-absent";
      level = Leaf_set;
      rw = (fun rng t -> Transform.pad_absent ~copies:(1 + Prng.int rng 3) t);
    };
    { name = "split-leaf"; level = Payload; rw = Transform.split_leaf };
    { name = "merge-twins"; level = Payload; rw = (fun _ t -> Transform.merge_twin_edges t) };
  ]

let supported (q : Api.query) =
  match q with
  | Api.Aggregate _ -> false
  | Api.Topk (_, (Api.Intersection | Api.Footrule | Api.Kendall), Api.Median) ->
      false
  | _ -> true

let compatible db (q : Api.query) =
  match q with
  | Api.World (Api.Set_jaccard, Api.Mean) -> Db.is_independent db
  | Api.World (Api.Set_jaccard, Api.Median) ->
      Db.is_independent db || Db.is_bid db
  | Api.World (Api.Set_sym_diff, _) -> true
  | Api.Topk (k, _, _) -> k >= 1 && Db.scores_distinct db
  | Api.Rank _ -> Db.scores_distinct db
  | Api.Cluster _ -> true
  | Api.Aggregate _ -> false

let level_ok level (q : Api.query) =
  match level with
  | Leaf_set -> true
  | Payload -> ( match q with Api.Cluster _ -> true | _ -> false)

let apply r rng db q =
  if not (supported q && level_ok r.level q && compatible db q) then None
  else
    let tree = Arena.to_tree ~leaf:(fun ~key ~value -> { Db.key; value }) (Db.arena db) in
    match Db.create (r.rw rng tree) with
    | db' -> if compatible db' q then Some db' else None
    | exception Invalid_argument _ -> None
