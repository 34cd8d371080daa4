(** Leveled structured logging, rendered as JSON lines.

    The compile server needs a production log: one JSON object per line,
    each carrying a timestamp, a severity, an event name, the request id
    that caused it (see {!Context}) and free-form fields.  Lines are
    buffered per domain exactly like {!Trace} events — appending takes
    only the buffer's own lock, which the sys-threads of one domain
    share — and merged into timestamp order by {!write}.

    The logger is off by default and the disabled path is free: {!log}
    loads one atomic and returns.  It allocates nothing as long as the
    call site passes a pre-existing field list (the empty list, or one
    built under an {!is_on} guard); sites that construct fields or pass
    [?req] to the convenience wrappers should guard with {!is_on} so a
    disabled logger costs nothing on hot paths.

    Line schema (all lines parse with {!Json.parse}):
    {v {"ts":<int, µs since the Unix epoch>,"level":"info",
       "event":"accept","req":<int, present unless unscoped>, <fields…>} v}
    Field keys chosen by call sites must avoid the four reserved keys
    [ts]/[level]/[event]/[req]. *)

type level = Error | Warn | Info | Debug

type field = Int of int | Str of string | Bool of bool

(** [enable l] turns logging on for severities up to and including [l]
    (e.g. [enable Info] keeps [Debug] lines off). *)
val enable : level -> unit

val disable : unit -> unit

(** [is_on l] is true when a line at severity [l] would be kept. *)
val is_on : level -> bool

(** Drop all buffered lines (the registry of per-domain buffers stays). *)
val reset : unit -> unit

(** [log l ~req event fields] buffers one line.  [req] tags the line with
    a request id; pass [-1] to use the ambient {!Context.request} (which
    is itself [-1] — rendered as no [req] key — outside any request). *)
val log : level -> req:int -> string -> (string * field) list -> unit

(** Convenience wrappers over {!log}; [?req] defaults to the ambient
    request scope. *)

val error : ?req:int -> string -> (string * field) list -> unit
val warn : ?req:int -> string -> (string * field) list -> unit
val info : ?req:int -> string -> (string * field) list -> unit
val debug : ?req:int -> string -> (string * field) list -> unit

(** Merge every domain's buffer into timestamp order and write one JSON
    object per line. *)
val write : out_channel -> unit

val write_file : string -> unit
val to_string : unit -> string

(** Severity names, lowercase ("error".."debug"); [level_of_string] is
    the inverse and rejects anything else. *)
val level_name : level -> string

val level_of_string : string -> level option
