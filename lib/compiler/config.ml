(** Compilation configurations matching the paper's measurement setup (§8).

    The baseline for every comparison is [-O2] with shrink-wrap disabled:
    intra-procedural priority coloring over the full register set.  Columns
    A-C of Table 1 and D/E of Table 2 are the other five configurations. *)

module Machine = Chow_machine.Machine
module Allocator = Chow_core.Allocator

type t = {
  name : string;
  ipra : bool;  (** -O3: inter-procedural allocation *)
  shrinkwrap : bool;
  machine : Machine.config;
  alloc : Allocator.strategy;  (** register-allocation strategy *)
}

(** [with_alloc strategy config] is [config] allocating with
    [strategy]. *)
let with_alloc alloc t = { t with alloc }

(** [fingerprint t] is a stable string identifying every field of [t] that
    can change generated code: the optimisation switches and the machine
    model.  [name] is presentation, so it does not participate.  The
    incremental cache keys unit artifacts on this, so two configurations
    share cache entries exactly when they provably produce the same
    code. *)
let fingerprint t =
  Printf.sprintf "ipra=%b;sw=%b;alloc=%s;nparam=%d;regs=%s" t.ipra
    t.shrinkwrap
    (Allocator.to_string t.alloc)
    t.machine.Machine.n_param_regs
    (String.concat "," (List.map string_of_int t.machine.Machine.allocatable))

let baseline =
  {
    name = "-O2";
    ipra = false;
    shrinkwrap = false;
    machine = Machine.full;
    alloc = Allocator.Chow;
  }

(** Table 1 column A: -O2 with shrink-wrap enabled. *)
let o2_sw =
  {
    name = "-O2+sw";
    ipra = false;
    shrinkwrap = true;
    machine = Machine.full;
    alloc = Allocator.Chow;
  }

(** Table 1 column B: -O3 with shrink-wrap disabled. *)
let o3 =
  {
    name = "-O3";
    ipra = true;
    shrinkwrap = false;
    machine = Machine.full;
    alloc = Allocator.Chow;
  }

(** Table 1 column C: -O3 with shrink-wrap enabled. *)
let o3_sw =
  {
    name = "-O3+sw";
    ipra = true;
    shrinkwrap = true;
    machine = Machine.full;
    alloc = Allocator.Chow;
  }

(** Table 2 column D: as C but only 7 caller-saved registers. *)
let seven_caller =
  {
    name = "-O3+sw/7caller";
    ipra = true;
    shrinkwrap = true;
    machine = Machine.seven_caller_saved;
    alloc = Allocator.Chow;
  }

(** Table 2 column E: as C but only 7 callee-saved registers. *)
let seven_callee =
  {
    name = "-O3+sw/7callee";
    ipra = true;
    shrinkwrap = true;
    machine = Machine.seven_callee_saved;
    alloc = Allocator.Chow;
  }

let all = [ baseline; o2_sw; o3; o3_sw; seven_caller; seven_callee ]
