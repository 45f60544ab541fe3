(** The keyed index over the slots of a {!Tuple_table}.

    An index groups the member slots of one table by a projection of
    their key columns: a key table maps each projected key to the first
    member and the length of its {e chain}, and two link columns indexed
    by member slot thread the members of a chain in both directions, so
    a member unlinks in O(1).  A key leaves the key table as soon as its
    chain empties.  An unlinked index keeps the lengths alone (a count
    is all some callers need).

    The index knows the table it indexes but does not watch it: the
    table's owner calls {!add} after inserting a member and {!remove}
    before freeing one.  Probes ({!head}, {!count}, {!iter}) take a
    caller-filled key, only read, and allocate nothing, so any number of
    domains may probe an index while nobody writes it or its table. *)

type t

val create : ?linked:bool -> Tuple_table.t -> cols:int array -> t
(** An index over the table's key columns [cols] (any order, any
    subset), holding every current member.  [linked] (default [true])
    threads the chains; without it only their lengths are kept. *)

val cols : t -> int array

val add : t -> Tuple_table.slot -> unit
(** Links member slot [s], which must be live and not yet indexed. *)

val remove : t -> Tuple_table.slot -> unit
(** Unlinks member slot [s] before its table frees it.
    @raise Invalid_argument if its key has no chain. *)

val clear : t -> unit
(** Drops every member, for a table being cleared and refilled. *)

val head : t -> int array -> Tuple_table.slot
(** [head t key] is the first member of the chain under [key] (one int
    per key column), or [-1].  Linked indexes only. *)

val next : t -> Tuple_table.slot -> Tuple_table.slot
(** The member after [s] in its chain, or [-1]. *)

val count : t -> int array -> int
(** The length of the chain under [key], 0 if none. *)

val iter : t -> int array -> (int array -> int -> unit) -> unit
(** [iter t key f] calls [f data off] on every member under [key],
    newest first; the member's row is [data.(off ..)].  [f] must not
    change the table or the index. *)

val check : t -> (unit, string) result
(** Every member of the table sits in exactly one chain, under its own
    projected key; each key's length counts its members, no key has an
    empty chain, and linked chains hold only live slots, each once,
    with consistent back links. *)

val words : t -> int
(** Words held by the index's arrays, from their lengths. *)
