(** Possible-world enumeration and sampling over the flat arena.

    A world is the list of its leaves' depth-first indices, in depth-first
    order; callers that need payloads map them with [Db.alt].  A generic
    ['a Tree.t] is walked by indexing it first ([Tree.index]) and building an
    arena over the index tree.

    Enumeration is exponential in general and is intended as the ground-truth
    oracle for tests and small experiments; every consensus algorithm in this
    repository is validated against it. *)

val to_seq : Arena.t -> (float * int list) Seq.t
(** All possible worlds with their probabilities, as (probability, leaf
    indices in depth-first order) pairs, produced lazily with no world list
    materialized and no limit.  Worlds produced along distinct choice paths
    are returned separately (probabilities of equal leaf sets are not
    merged); the probabilities sum to 1.  This is the single enumeration
    core: an instance with [2^18] worlds streams through constant memory. *)

val fold : Arena.t -> init:'b -> f:('b -> float -> int list -> 'b) -> 'b
(** [fold a ~init ~f] folds [f] over {!to_seq}. *)

val enumerate : ?limit:int -> Arena.t -> (float * int list) list
(** {!to_seq} materialized.  Raises [Invalid_argument] if there are more
    than [limit] (default [200_000]) worlds. *)

val enumerate_merged : ?limit:int -> Arena.t -> (int list * float) list
(** Like {!enumerate} with equal leaf-index sets merged (summing
    probabilities); each world is its sorted leaf-index list.  Sorted by
    world. *)

val world_probability : ?limit:int -> Arena.t -> int list -> float
(** [world_probability a ids] is the total probability that the world equals
    exactly the leaf-index set [ids].  Enumeration based. *)

val sample : Consensus_util.Prng.t -> Arena.t -> int list
(** Draw one possible world (leaf indices in depth-first order): one uniform
    draw per visited xor node, in depth-first order.  Iterative. *)

val expectation : ?limit:int -> Arena.t -> f:(int list -> float) -> float
(** [expectation a ~f] = E[f(pw)] by exact enumeration. *)

val monte_carlo :
  Consensus_util.Prng.t -> samples:int -> Arena.t -> f:(int list -> float) -> float
(** Monte-Carlo estimate of E[f(pw)]. *)
