(** See trace.mli.  Events are stored struct-of-arrays per domain: parallel
    growable arrays of name / timestamp / duration / kind / pre-rendered
    args.  A per-buffer mutex, taken only while tracing is enabled,
    serialises the sys-threads sharing a domain, as {!Flight.record} does
    for its rings.  The global registry of buffers is only touched on a
    domain's first event, on {!reset} and on {!write}. *)

type arg = Int of int | Str of string

let k_span = 0
let k_counter = 1

type buf = {
  tid : int;
  lock : Mutex.t;
  mutable n : int;
  mutable names : string array;
  mutable ts : int array;  (** ns since the Unix epoch *)
  mutable dur : int array;  (** ns; 0 for counter events *)
  mutable kinds : int array;
  mutable args : string array;  (** rendered JSON object body, [""] = none *)
}

let enabled = Atomic.make false
let epoch = Atomic.make 0
let registry : buf list ref = ref []
let registry_lock = Mutex.create ()

let now_ns () = int_of_float (Unix.gettimeofday () *. 1e9)

let buffer_key =
  Domain.DLS.new_key (fun () ->
      let b =
        {
          tid = (Domain.self () :> int);
          lock = Mutex.create ();
          n = 0;
          names = Array.make 64 "";
          ts = Array.make 64 0;
          dur = Array.make 64 0;
          kinds = Array.make 64 0;
          args = Array.make 64 "";
        }
      in
      Mutex.lock registry_lock;
      registry := b :: !registry;
      Mutex.unlock registry_lock;
      b)

let buffer () = Domain.DLS.get buffer_key

let grow b =
  let cap = Array.length b.names * 2 in
  let g pad a =
    let n = Array.make cap pad in
    Array.blit a 0 n 0 b.n;
    n
  in
  b.names <- g "" b.names;
  b.ts <- g 0 b.ts;
  b.dur <- g 0 b.dur;
  b.kinds <- g 0 b.kinds;
  b.args <- g "" b.args

let push b ~name ~ts ~dur ~kind ~args =
  Mutex.lock b.lock;
  if b.n = Array.length b.names then grow b;
  let i = b.n in
  b.names.(i) <- name;
  b.ts.(i) <- ts;
  b.dur.(i) <- dur;
  b.kinds.(i) <- kind;
  b.args.(i) <- args;
  b.n <- i + 1;
  Mutex.unlock b.lock

let is_on () = Atomic.get enabled

let enable () =
  if Atomic.get epoch = 0 then Atomic.set epoch (now_ns ());
  Atomic.set enabled true

let disable () = Atomic.set enabled false

let reset () =
  Mutex.lock registry_lock;
  List.iter
    (fun b ->
      Mutex.lock b.lock;
      b.n <- 0;
      Mutex.unlock b.lock)
    !registry;
  Mutex.unlock registry_lock

(* ----- JSON rendering ----- *)

let escape_into out s =
  String.iter
    (fun c ->
      match c with
      | '"' -> out "\\\""
      | '\\' -> out "\\\\"
      | '\n' -> out "\\n"
      | '\t' -> out "\\t"
      | c when Char.code c < 0x20 ->
          out (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> out (String.make 1 c))
    s

let escape s =
  let b = Buffer.create (String.length s + 2) in
  escape_into (Buffer.add_string b) s;
  Buffer.contents b

(* the body of the "args" object, without braces *)
let render_args kvs =
  String.concat ","
    (List.map
       (fun (k, v) ->
         match v with
         | Int n -> Printf.sprintf "\"%s\":%d" (escape k) n
         | Str s -> Printf.sprintf "\"%s\":\"%s\"" (escape k) (escape s))
       kvs)

let render_counts kvs =
  String.concat ","
    (List.map (fun (k, n) -> Printf.sprintf "\"%s\":%d" (escape k) n) kvs)

let span ?(args = []) name f =
  if not (Atomic.get enabled) then f ()
  else begin
    let b = buffer () in
    let rendered = render_args args in
    let t0 = now_ns () in
    let finish () =
      push b ~name ~ts:t0 ~dur:(now_ns () - t0) ~kind:k_span ~args:rendered
    in
    match f () with
    | v ->
        finish ();
        v
    | exception e ->
        finish ();
        raise e
  end

let counter name series =
  if Atomic.get enabled then
    push (buffer ()) ~name ~ts:(now_ns ()) ~dur:0 ~kind:k_counter
      ~args:(render_counts series)

(* Synthetic-clock spans: the caller supplies ts/dur on its own timebase
   (e.g. simulated cycles).  The epoch is added here so that [emit]'s
   subtraction leaves the caller's timestamps intact. *)
let elapsed_ns () =
  let e = Atomic.get epoch in
  if e = 0 then 0 else now_ns () - e

let span_at ?(args = []) ~ts_ns ~dur_ns name =
  if Atomic.get enabled then
    push (buffer ()) ~name
      ~ts:(Atomic.get epoch + ts_ns)
      ~dur:dur_ns ~kind:k_span ~args:(render_args args)

(* Timestamps and durations are emitted in microseconds (the trace-event
   unit) with nanosecond precision kept as three decimals. *)
let pp_us out ns =
  let ns = if ns < 0 then 0 else ns in
  out (Printf.sprintf "%d.%03d" (ns / 1000) (ns mod 1000))

let emit out =
  let bufs =
    Mutex.lock registry_lock;
    let l = !registry in
    Mutex.unlock registry_lock;
    l
  in
  let e0 = Atomic.get epoch in
  out "[";
  let first = ref true in
  List.iter
    (fun b ->
      Mutex.protect b.lock @@ fun () ->
      for i = 0 to b.n - 1 do
        if !first then first := false else out ",";
        out "\n";
        out (Printf.sprintf "{\"name\":\"%s\",\"ph\":\"%s\",\"pid\":1,\"tid\":%d,\"ts\":"
               (escape b.names.(i))
               (if b.kinds.(i) = k_span then "X" else "C")
               b.tid);
        pp_us out (b.ts.(i) - e0);
        if b.kinds.(i) = k_span then begin
          out ",\"dur\":";
          pp_us out b.dur.(i)
        end;
        if b.args.(i) <> "" then begin
          out ",\"args\":{";
          out b.args.(i);
          out "}"
        end;
        out "}"
      done)
    bufs;
  out "\n]\n"

let write oc = emit (output_string oc)

let write_file path =
  let oc = open_out path in
  write oc;
  close_out oc

let to_string () =
  let b = Buffer.create 4096 in
  emit (Buffer.add_string b);
  Buffer.contents b
