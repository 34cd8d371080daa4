(** One-pass inter-procedural register allocation driver (§2): processes
    procedures in depth-first call-graph order, each closed procedure
    publishing its register-usage summary before any caller is allocated.
    With [ipra = false] every procedure uses the default linkage convention
    — the paper's [-O2] baseline. *)

type t = {
  results : (string * Alloc_types.result) list;  (** in processing order *)
  usage : Usage.table;
  callgraph : Callgraph.t;
  stats : (string * Coloring.stats) list;
}

val find : t -> string -> Alloc_types.result option

(** [allocate_program ?ipra ?shrinkwrap ?profile config prog] allocates
    and publishes each procedure in turn, in
    {!Callgraph.processing_order}.  [profile] optionally supplies measured
    block frequencies per procedure (§8 future work); procedures without
    one keep the static loop-depth estimates.  [explain] names one
    procedure whose allocation decisions are recorded into the supplied
    {!Coloring.explanation} buffer.  [strategy] selects the allocation
    policy (default {!Allocator.Chow}); every strategy publishes usage
    summaries through the same contract. *)
val allocate_program :
  ?ipra:bool ->
  ?shrinkwrap:bool ->
  ?strategy:Allocator.strategy ->
  ?profile:(string -> float array option) ->
  ?explain:string * Coloring.explanation ->
  Chow_machine.Machine.config ->
  Chow_ir.Ir.prog ->
  t
