(** Real-disk plumbing shared by the durable log and the outbox ledger.

    The durability target is crash-stop of the PROCESS (kill -9), not
    power loss: a completed [write] survives the process because the page
    cache belongs to the kernel, so "durable" here means written, not
    fsynced. Upgrading to power-failure durability is one fsync per flush
    point, in exactly these helpers. *)

val write_all : Unix.file_descr -> string -> unit
(** Write the whole string, looping over short writes. *)

val write_file_atomic : string -> string -> unit
(** Replace a file's contents: full content to [path ^ ".tmp"], then
    rename. Readers see the old version or the new one, never a torn
    middle. *)

val read_file : string -> string

val mkdir_p : string -> unit
(** Create a directory and its missing parents. *)
