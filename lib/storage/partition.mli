(** The discriminating hash function [H] (paper §2.2, Algorithm 1).

    Splits the key domain into [workers] partitions.  Records of both
    base and recursive tables are allocated to partitions by the hash of
    their join-key value, so the same key always lands on the same
    worker regardless of which relation it appears in. *)

type t

val create : workers:int -> t

val workers : t -> int

val of_key : t -> int -> int
(** [of_key h k] is the owning worker of key value [k], in
    [0 .. workers-1].  Uses {!Tuple.hash_int} (FNV fold + 64-bit
    avalanche finalizer), so sequential and strided key streams spread
    evenly over the workers and a single-column key places identically
    to {!of_tuple} on that column. *)

val of_slice : t -> cols:int array -> int array -> int -> int
(** [of_slice h ~cols data off] is the owner of the tuple stored flat at
    [data.(off ..)], by its key columns [cols] (the multi-column key is
    mixed into a single hash).  This is the one placement: the engine's
    Distribute routes every derived tuple through it, and a sharded
    {!Relation} picks the shard of a probe through it, so a worker's
    partition of a stratum's answer is that relation's shard. *)

val of_tuple : t -> cols:int array -> Tuple.t -> int
(** [of_slice] on a boxed tuple. *)

val split : t -> Tuple.t Dcd_util.Vec.t -> cols:int array -> Tuple.t Dcd_util.Vec.t array
(** Partitions a batch of tuples by owner. *)
