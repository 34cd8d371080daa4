(** Chrome trace-event tracing with per-domain buffering.

    Disabled by default; every probe is a single atomic load followed by an
    immediate return, so instrumented code pays nothing until {!enable} is
    called (the zero-overhead-when-disabled contract).  When enabled, each
    domain appends events to its own domain-local buffer — no cross-domain
    synchronisation on the recording path, so tracing never perturbs the
    daemon's concurrent worker domains — and
    {!write} merges the buffers into one JSON array that Chrome's
    [about:tracing] / Perfetto loads directly. *)

(** Span / counter argument values, rendered into the event's ["args"]. *)
type arg = Int of int | Str of string

val is_on : unit -> bool

(** [enable ()] arms recording; the first call fixes the trace epoch. *)
val enable : unit -> unit

val disable : unit -> unit

(** [reset ()] discards all buffered events (the epoch is kept). *)
val reset : unit -> unit

(** [span ?args name f] runs [f ()] inside a complete-event span ([ph:"X"])
    named [name] on the calling domain's timeline.  The event is recorded
    when [f] returns or raises; nested spans therefore appear before their
    parent in the buffer, which Chrome accepts (events need not be
    sorted). *)
val span : ?args:(string * arg) list -> string -> (unit -> 'a) -> 'a

(** [counter name series] records a counter event ([ph:"C"]): one sample of
    each named series at the current time. *)
val counter : string -> (string * int) list -> unit

(** [elapsed_ns ()] is the wall-clock time since the trace epoch (fixed by
    the first {!enable}) in nanoseconds, or [0] while no epoch is set —
    the timebase for {!span_at} callers that measure an interval across
    threads (e.g. a request's queue wait, stamped at submit time and
    recorded by the worker that dequeues it). *)
val elapsed_ns : unit -> int

(** [span_at ~ts_ns ~dur_ns name] records a complete-event span whose
    start and duration the caller supplies on its own timebase (relative
    to the trace epoch) instead of the wall clock — how the simulator's
    penalty profiler plots simulated-time call spans next to the compile's
    wall-clock spans.  No-op while disabled. *)
val span_at :
  ?args:(string * arg) list -> ts_ns:int -> dur_ns:int -> string -> unit

(** [escape_into out s] feeds [s] to [out] with JSON string escaping —
    the renderer shared by {!Log} and {!Flight}. *)
val escape_into : (string -> unit) -> string -> unit

(** Merge every domain's buffer and emit the JSON array.  Call only when no
    domain is still recording. *)
val write : out_channel -> unit

val write_file : string -> unit
val to_string : unit -> string
