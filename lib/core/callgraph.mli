(** Program call graph, depth-first processing order, and the open/closed
    classification of §3.

    A procedure is {e open} when some caller may be processed after it or
    is unknown: it is externally visible ([export]ed or [main]), its
    address is taken, or it takes part in recursion (including
    self-calls).  All other procedures are {e closed}: every caller is
    compiled later in the depth-first order and can consume their
    register-usage summary. *)

type t

val build : Chow_ir.Ir.prog -> t

val is_open : t -> string -> bool

(** Processing order: callees before callers.  The SCC condensation is
    leveled — every inter-component callee of a level-[k] procedure lives
    in some level [< k] — and the levels are listed in turn, so members of
    a cycle are adjacent.  This order fixes the procedure order inside
    every linked image. *)
val processing_order : t -> string list

(** Direct callees defined in the same program, deduplicated. *)
val direct_callees : t -> string -> string list
