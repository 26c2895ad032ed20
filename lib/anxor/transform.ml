let of_worlds worlds =
  List.iter
    (fun (p, _) ->
      if not (Float.is_finite p) || p < 0. then
        invalid_arg "Transform.of_worlds: negative or non-finite probability")
    worlds;
  Tree.xor (List.map (fun (p, leaves) -> (p, Tree.certain leaves)) worlds)

let rec simplify (t : 'a Tree.t) : 'a Tree.t =
  match t with
  | Tree.Leaf _ -> t
  | Tree.And children ->
      let children =
        List.map simplify children
        |> List.concat_map (function
             | Tree.And cs -> cs (* flatten *)
             | c -> [ c ])
      in
      (match children with [ c ] -> c | cs -> Tree.and_ cs)
  | Tree.Xor edges ->
      let edges = List.map (fun (p, c) -> (p, simplify c)) edges in
      (* Distribute nested xors and fold empty subtrees into residual. *)
      let edges =
        List.concat_map
          (fun (p, c) ->
            match c with
            | Tree.Xor inner ->
                List.map (fun (q, gc) -> (p *. q, gc)) inner
                (* the inner residual mass (if any) becomes outer residual
                   automatically: Σ p·q <= p *)
            | Tree.And [] -> [] (* empty world: residual mass *)
            | _ -> [ (p, c) ])
          edges
      in
      (match edges with
      | [ (p, c) ] when Consensus_util.Fcmp.approx ~eps:1e-12 p 1. -> c
      | es -> Tree.xor es)

let merge_independent trees = simplify (Tree.and_ trees)

let push_bernoulli p t =
  if not (Consensus_util.Fcmp.is_probability p) then
    invalid_arg "Transform.push_bernoulli: not a probability";
  Tree.xor [ (p, t) ]

let count_matches pred t =
  List.length (List.filter pred (Tree.leaves t))

let condition_present pred t =
  (match count_matches pred t with
  | 0 | 1 -> ()
  | _ -> invalid_arg "Transform.condition_present: predicate matches several leaves");
  (* returns (Pr(leaf present in subtree), conditioned subtree) when the
     subtree contains the leaf *)
  let rec go (t : 'a Tree.t) : (float * 'a Tree.t) option =
    match t with
    | Tree.Leaf a -> if pred a then Some (1., Tree.leaf a) else None
    | Tree.And cs ->
        let rec split acc = function
          | [] -> None
          | c :: rest -> (
              match go c with
              | Some (p, c') -> Some (p, Tree.and_ (List.rev_append acc (c' :: rest)))
              | None -> split (c :: acc) rest)
        in
        split [] cs
    | Tree.Xor es ->
        let rec find = function
          | [] -> None
          | (p, c) :: rest -> (
              match go c with
              | Some (q, c') -> Some (p *. q, c') (* conditioning forces this branch *)
              | None -> find rest)
        in
        find es
  in
  go t

let condition_absent pred t =
  (match count_matches pred t with
  | 0 | 1 -> ()
  | _ -> invalid_arg "Transform.condition_absent: predicate matches several leaves");
  (* returns (Pr(leaf absent in subtree), conditioned subtree) when the
     subtree contains the leaf; the conditioned tree realizes the subtree's
     distribution given absence (an empty And when nothing can remain) *)
  let rec go (t : 'a Tree.t) : (float * 'a Tree.t) option =
    match t with
    | Tree.Leaf a -> if pred a then Some (0., Tree.and_ []) else None
    | Tree.And cs ->
        let rec split acc = function
          | [] -> None
          | c :: rest -> (
              match go c with
              | Some (q, c') -> Some (q, Tree.and_ (List.rev_append acc (c' :: rest)))
              | None -> split (c :: acc) rest)
        in
        split [] cs
    | Tree.Xor es -> (
        let rec find acc = function
          | [] -> None
          | ((p, c) as edge) :: rest -> (
              match go c with
              | Some (q, c') ->
                  (* Pr(absent) = 1 - p·(1 - q); other branches and the
                     residual keep their mass, this branch keeps p·q. *)
                  let z = 1. -. (p *. (1. -. q)) in
                  if z <= 1e-15 then Some (0., t)
                  else begin
                    let scaled (pe, ce) = (pe /. z, ce) in
                    let this = if p *. q > 0. then [ (p *. q /. z, c') ] else [] in
                    Some
                      ( z,
                        Tree.xor
                          (List.rev_append (List.map scaled acc)
                             (this @ List.map scaled rest)) )
                  end
              | None -> find (edge :: acc) rest)
        in
        find [] es)
  in
  go t

let is_equivalent ?limit t1 t2 =
  let table t =
    let it, payloads = Tree.index t in
    let tbl = Hashtbl.create 64 in
    Worlds.enumerate ?limit (Arena.of_tree ~key:Fun.id ~value:(fun _ -> 0.) it)
    |> List.iter (fun (p, w) ->
           let key = List.sort compare (List.map (Array.get payloads) w) in
           Hashtbl.replace tbl key
             (p +. Option.value (Hashtbl.find_opt tbl key) ~default:0.));
    tbl
  in
  let tb1 = table t1 and tb2 = table t2 in
  let check a b =
    Hashtbl.fold
      (fun key p acc ->
        acc
        && Consensus_util.Fcmp.approx ~eps:1e-9 p
             (Option.value (Hashtbl.find_opt b key) ~default:0.))
      a true
  in
  check tb1 tb2 && check tb2 tb1

let stats t =
  (* Explicit work-list: [stats] is called on full-size databases (serve
     daemon introspection), where recursion would overflow. *)
  let leaves = ref 0 and ands = ref 0 and xors = ref 0 in
  let stack = ref [ (t : 'a Tree.t) ] in
  while !stack <> [] do
    match !stack with
    | [] -> ()
    | Tree.Leaf _ :: rest ->
        incr leaves;
        stack := rest
    | Tree.And cs :: rest ->
        incr ands;
        stack := List.rev_append (List.rev cs) rest
    | Tree.Xor es :: rest ->
        incr xors;
        stack := List.rev_append (List.rev_map snd es) rest
  done;
  (!leaves, !ands, !xors)

(* ---------- metamorphic rewrites (differential-testing layer) ----------

   Each rewrite below preserves the leaf-set distribution at a documented
   level (exactly, or at the payload-multiset level); lib/oracle pairs them
   with the invariant the optimized algorithms must satisfy. *)

let shuffle_siblings rng t =
  let shuffle_list rng l =
    let a = Array.of_list l in
    Consensus_util.Prng.shuffle rng a;
    Array.to_list a
  in
  let rec go (t : 'a Tree.t) : 'a Tree.t =
    match t with
    | Tree.Leaf _ -> t
    | Tree.And cs -> Tree.and_ (shuffle_list rng (List.map go cs))
    | Tree.Xor es ->
        Tree.xor (shuffle_list rng (List.map (fun (p, c) -> (p, go c)) es))
  in
  go t

let pad_absent ~copies t =
  if copies < 0 then invalid_arg "Transform.pad_absent: negative copies";
  Tree.and_ (t :: List.init copies (fun _ -> Tree.xor []))

let split_leaf rng t =
  let n = Tree.num_leaves t in
  if n = 0 then t
  else begin
    let target = Consensus_util.Prng.int rng n in
    let counter = ref (-1) in
    let split_edge p a =
      [ (p /. 2., Tree.leaf a); (p /. 2., Tree.leaf a) ]
    in
    let rec go (t : 'a Tree.t) : 'a Tree.t =
      match t with
      | Tree.Leaf a ->
          incr counter;
          if !counter = target then Tree.xor (split_edge 1. a) else t
      | Tree.And cs -> Tree.and_ (List.map go cs)
      | Tree.Xor es ->
          Tree.xor
            (List.concat_map
               (fun (p, c) ->
                 match c with
                 | Tree.Leaf a ->
                     incr counter;
                     if !counter = target then split_edge p a else [ (p, c) ]
                 | _ -> [ (p, go c) ])
               es)
    in
    go t
  end

let merge_twin_edges t =
  let rec go (t : 'a Tree.t) : 'a Tree.t =
    match t with
    | Tree.Leaf _ -> t
    | Tree.And cs -> Tree.and_ (List.map go cs)
    | Tree.Xor es ->
        let es = List.map (fun (p, c) -> (p, go c)) es in
        let merged =
          List.fold_left
            (fun acc (p, c) ->
              match List.partition (fun (_, c') -> c' = c) acc with
              | [ (q, _) ], rest -> (q +. p, c) :: rest
              | _ -> (p, c) :: acc)
            [] es
        in
        Tree.xor (List.rev merged)
  in
  go t
