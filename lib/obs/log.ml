(** See log.mli.  Lines are rendered eagerly at the call site (the field
    list is short-lived) into per-domain growable arrays of
    (timestamp, line) pairs, merged into one timestamp-ordered stream by
    {!write}.  The enabled check is a single atomic load of the current
    threshold, so a disabled logger costs one load per call site.  A
    per-buffer mutex, taken only on the enabled path, serialises the
    sys-threads sharing a domain (the daemon's acceptor and connection
    readers all run on one), as {!Flight.record} does for its rings. *)

type level = Error | Warn | Info | Debug

type field = Int of int | Str of string | Bool of bool

let rank = function Error -> 0 | Warn -> 1 | Info -> 2 | Debug -> 3
let level_name = function
  | Error -> "error"
  | Warn -> "warn"
  | Info -> "info"
  | Debug -> "debug"

let level_of_string = function
  | "error" -> Some Error
  | "warn" -> Some Warn
  | "info" -> Some Info
  | "debug" -> Some Debug
  | _ -> None

(* -1 = disabled; otherwise the rank of the most verbose kept level *)
let threshold = Atomic.make (-1)

let is_on l = rank l <= Atomic.get threshold
let enable l = Atomic.set threshold (rank l)
let disable () = Atomic.set threshold (-1)

type buf = {
  lock : Mutex.t;
  mutable n : int;
  mutable ts : int array;  (** µs since the Unix epoch *)
  mutable lines : string array;
}

let registry : buf list ref = ref []
let registry_lock = Mutex.create ()

let buffer_key =
  Domain.DLS.new_key (fun () ->
      let b =
        {
          lock = Mutex.create ();
          n = 0;
          ts = Array.make 64 0;
          lines = Array.make 64 "";
        }
      in
      Mutex.lock registry_lock;
      registry := b :: !registry;
      Mutex.unlock registry_lock;
      b)

let now_us () = int_of_float (Unix.gettimeofday () *. 1e6)

let grow b =
  let cap = Array.length b.ts * 2 in
  let ts = Array.make cap 0 and lines = Array.make cap "" in
  Array.blit b.ts 0 ts 0 b.n;
  Array.blit b.lines 0 lines 0 b.n;
  b.ts <- ts;
  b.lines <- lines

let reset () =
  Mutex.lock registry_lock;
  List.iter
    (fun b ->
      Mutex.lock b.lock;
      b.n <- 0;
      Mutex.unlock b.lock)
    !registry;
  Mutex.unlock registry_lock

let render ~ts ~level ~req event fields =
  let b = Buffer.create 96 in
  let out = Buffer.add_string b in
  out (Printf.sprintf "{\"ts\":%d,\"level\":\"%s\",\"event\":\"" ts
         (level_name level));
  Trace.escape_into out event;
  out "\"";
  if req >= 0 then out (Printf.sprintf ",\"req\":%d" req);
  List.iter
    (fun (k, v) ->
      out ",\"";
      Trace.escape_into out k;
      out "\":";
      match v with
      | Int n -> out (string_of_int n)
      | Bool v -> out (if v then "true" else "false")
      | Str s ->
          out "\"";
          Trace.escape_into out s;
          out "\"")
    fields;
  out "}";
  Buffer.contents b

let log level ~req event fields =
  if rank level <= Atomic.get threshold then begin
    let req = if req >= 0 then req else Context.request () in
    let ts = now_us () in
    let line = render ~ts ~level ~req event fields in
    let b = Domain.DLS.get buffer_key in
    Mutex.lock b.lock;
    if b.n = Array.length b.ts then grow b;
    b.ts.(b.n) <- ts;
    b.lines.(b.n) <- line;
    b.n <- b.n + 1;
    Mutex.unlock b.lock
  end

let error ?(req = -1) event fields = log Error ~req event fields
let warn ?(req = -1) event fields = log Warn ~req event fields
let info ?(req = -1) event fields = log Info ~req event fields
let debug ?(req = -1) event fields = log Debug ~req event fields

(* ----- merged writer ----- *)

let collect () =
  Mutex.lock registry_lock;
  let bufs = !registry in
  Mutex.unlock registry_lock;
  let rows = ref [] in
  List.iter
    (fun b ->
      Mutex.lock b.lock;
      for i = b.n - 1 downto 0 do
        rows := (b.ts.(i), b.lines.(i)) :: !rows
      done;
      Mutex.unlock b.lock)
    bufs;
  List.stable_sort (fun (a, _) (b, _) -> compare a b) !rows

let emit out =
  List.iter
    (fun (_, line) ->
      out line;
      out "\n")
    (collect ())

let write oc = emit (output_string oc)

let write_file path =
  let oc = open_out path in
  write oc;
  close_out oc

let to_string () =
  let b = Buffer.create 4096 in
  emit (Buffer.add_string b);
  Buffer.contents b
