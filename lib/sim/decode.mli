(** Pre-decoded threaded execution engine behind {!Sim.run}.

    [decode] compiles a linked program once into a flat struct-of-arrays
    form (int opcodes with the binop/relop/tag variant folded in, operands
    pre-resolved, per-pc procedure-meta indices); [execute] interprets it
    with a jump-table dispatch loop and an allocation-free contract
    checker.  [decode] also works out, from the linked instructions alone,
    which registers each procedure's activation can write, and the checker
    snapshots only the preserved registers among them: the others cannot
    change while the checker is armed, so its verdicts and messages are
    those of a full snapshot.

    Memory is paged: the {!Chow_machine.Machine.mem_words}-word address
    space is a table of 4096-word pages that all start out as one shared
    zero page, and a store allocates its page the first time it writes
    there.  A run pays for the pages it writes instead of zero-filling
    the whole address space.  Behaviourally identical to
    {!Sim.run_reference}, whose flat memory array stays the
    specification; the differential test suite enforces it. *)

exception Runtime_error of string

val error : ('a, Format.formatter, unit, 'b) format4 -> 'a
(** Raise {!Runtime_error} with a formatted message. *)

val tag_index : Chow_codegen.Asm.tag -> int
(** Dense numbering of the traffic tags: data, scalar, save, callsave,
    stackarg. *)

type outcome = {
  output : int list;
  cycles : int;
  calls : int;
  data_loads : int;
  data_stores : int;
  scalar_loads : int;  (** scalar + save/restore + stack-arg loads *)
  scalar_stores : int;
  save_loads : int;
      (** the save/restore component alone: contract (entry/exit) plus
          around-call restores *)
  save_stores : int;
  call_save_loads : int;  (** the around-call subset of [save_loads] *)
  call_save_stores : int;
  pc_counts : int array;
      (** execution count of each pc, when run with [profile = true];
          empty otherwise.  {!block_counts} and {!attribute_cycles} derive
          the per-block and per-procedure views from it. *)
}

type t
(** A program decoded for execution.  Decoding is total on linked
    programs; pre-link instructions ([Jal], [Lproc]) decode to a poison
    opcode that traps only if executed, matching the reference engine. *)

(** Call-path probes for {!execute}: [h_call] fires once per call
    transfer (with the call instruction's pc as [site] and the callee
    entry as [target]), [h_return] once per return, each carrying the
    executed-cycle count and the running contract / around-call
    save-restore totals at that moment.  The hooks never fire on the
    straight-line path, so execution without them is unchanged. *)
type hooks = {
  h_call :
    site:int ->
    target:int ->
    cycles:int ->
    contract_saves:int ->
    contract_restores:int ->
    call_saves:int ->
    call_restores:int ->
    unit;
  h_return :
    cycles:int ->
    contract_saves:int ->
    contract_restores:int ->
    call_saves:int ->
    call_restores:int ->
    unit;
}

val decode : Chow_codegen.Asm.program -> t

val execute :
  ?fuel:int ->
  ?check:bool ->
  ?profile:bool ->
  ?hooks:hooks ->
  t ->
  outcome
(** Interpret a decoded program; parameters and semantics exactly as
    {!Sim.run}.  [hooks] installs the call-path probes above. *)

val proc_name_of : Chow_codegen.Asm.program -> int -> string
(** The procedure containing the given pc (nearest entry at or below it),
    ["<stub>"] for the startup stub, ["<unknown>"] when the program
    publishes no procedure addresses.  Error-path helper shared by both
    engines so trap messages agree. *)

val attribute_cycles :
  Chow_codegen.Asm.program -> int array -> (string * int) list
(** Fold a per-pc execution profile into per-procedure cycle totals in
    address order, a ["<stub>"] entry prepended when startup code ran;
    empty for an empty profile.  Shared by both engines so their
    attributions agree exactly. *)

val block_counts :
  Chow_codegen.Asm.program ->
  outcome ->
  ((string * Chow_ir.Ir.label) * int) list
(** The execution count of each basic block, read off the outcome's
    [pc_counts]; empty when the run was not profiled. *)

val publish_metrics : Chow_codegen.Asm.program -> outcome -> unit
(** Publish a completed run's counters into {!Chow_obs.Metrics} (a no-op
    while metrics are disabled), with per-procedure cycles under
    [sim.proc_cycles/NAME] when the run was profiled.  Both engines call
    this with the same counter names. *)
