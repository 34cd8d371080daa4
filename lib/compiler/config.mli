(** Compilation configurations matching the paper's measurement setup (§8).

    This interface is the supported surface of the compiler library's
    configuration: the record itself (build variants with
    [{ Config.o3_sw with ... }] over a named configuration, so adding a
    field touches only this module), the six named configurations of
    Tables 1 and 2, and the {!fingerprint} that keys the incremental
    cache. *)

module Machine := Chow_machine.Machine
module Allocator := Chow_core.Allocator

type t = {
  name : string;
  ipra : bool;  (** -O3: inter-procedural allocation *)
  shrinkwrap : bool;
  machine : Machine.config;
  alloc : Allocator.strategy;
      (** register-allocation strategy; the named configurations all use
          {!Allocator.Chow} *)
}

(** [with_alloc strategy config] is [config] allocating with
    [strategy]. *)
val with_alloc : Allocator.strategy -> t -> t

(** The paper's six measurement configurations.  [baseline] is [-O2]
    without shrink-wrap; [all] lists them in table order. *)

val baseline : t
val o2_sw : t
val o3 : t
val o3_sw : t
val seven_caller : t
val seven_callee : t
val all : t list

(** [fingerprint t] is a stable string over every code-affecting field —
    optimisation switches, allocation strategy and machine model,
    excluding the presentational [name].  Part of the incremental cache
    key. *)
val fingerprint : t -> string
