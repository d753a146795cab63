(** Ground tuples: a relation name applied to values, with the first
    attribute as the location specifier. *)

type t

val make : string -> Value.t list -> t
(** @raise Invalid_argument if the argument list is empty or the first
    argument is not an [Addr] (every NDlog relation is located). *)

val of_array : string -> Value.t array -> t
(** [make] on an array the tuple takes ownership of: the caller must not
    mutate it afterwards. Same checks and messages as [make]. *)

val rel : t -> string
val args : t -> Value.t array
val arity : t -> int

val loc : t -> int
(** The node address in the location specifier (first attribute). *)

val arg : t -> int -> Value.t
(** @raise Invalid_argument on an out-of-range index. *)

val equal : t -> t -> bool
val compare : t -> t -> int
val hash : t -> int

val canonical : t -> string
(** Unambiguous rendering used as SHA-1 input; [vid = sha1 (canonical t)]
    mirrors the paper's [sha1(packet(@n1, n1, n3, "data"))]. Memoized per
    tuple value. *)

val digest : t -> Dpc_util.Sha1.t
(** The tuple's SHA-1, memoized per tuple value — the vid every
    provenance scheme keys on. Computed over the canonical rendering with
    one twist: [Str] payloads longer than {!Value.payload_inline_max}
    contribute their interned rendering ({!Value.interned_feed} — length
    plus the payload's own cached digest) instead of their raw bytes, so
    repeated large payloads are hashed once per distinct content.
    Injective and deterministic like [sha1 (canonical t)], but NOT equal
    to it for tuples with large payloads. *)

val pp : Format.formatter -> t -> unit
(** e.g. [packet(@n1, n1, n3, "data")]. *)

val to_string : t -> string

val wire_size : t -> int
(** Serialized size in bytes, for bandwidth and storage accounting. *)

val serialized_size : t -> int
(** Exact byte count {!serialize} emits for this tuple, computed without
    serializing — the unit of Db's incremental storage accounting. *)

val serialize : Dpc_util.Serialize.writer -> t -> unit
val deserialize : Dpc_util.Serialize.reader -> t
