(** Relation catalog: shared, read-mostly storage for base (EDB) tables
    and materialized results of completed strata.

    During parallel evaluation the catalog is strictly read-only (the
    workers only probe prebuilt indexes and scan relations' tuple
    tables in place); relations are added between strata by the
    single-threaded orchestrator, so no synchronization is needed. *)

type t

val create : unit -> t

val load : t -> name:string -> arity:int -> Dcd_storage.Tuple.t Dcd_util.Vec.t -> unit
(** Creates (or extends) a relation with the given tuples,
    deduplicating; a new relation is sized for the whole vector.
    @raise Invalid_argument on arity mismatch with an existing
    relation. *)

val add_relation : t -> Dcd_storage.Relation.t -> unit
(** Registers a fully built relation (replacing any same-named one). *)

val ensure : ?size_hint:int -> t -> name:string -> arity:int -> Dcd_storage.Relation.t
(** The named relation, creating it empty (sized for [size_hint]
    tuples) if missing. *)

val find : t -> string -> Dcd_storage.Relation.t option

val get : t -> string -> Dcd_storage.Relation.t
(** @raise Invalid_argument if absent. *)

val names : t -> string list
