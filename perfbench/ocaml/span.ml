(** The traced run's span buffer.

    A span is a named interval with an explicit parent and the input it
    worked on (a program or a (program, config) pair).  Spans stay in memory
    until the run ends; {!fold} turns them into per-layer self times and
    {!chrome_json} into a file chrome://tracing or Perfetto loads. *)

type t = {
  id : int;
  name : string;
  parent : int;  (** -1 for a root *)
  input : string;
  t0 : float;  (** seconds, {!Util.now} *)
  t1 : float;
}

let lock = Mutex.create ()
let buf : t list ref = ref []
let next = ref 0

let fresh () = Mutex.protect lock (fun () -> incr next; !next)
let add s = Mutex.protect lock (fun () -> buf := s :: !buf)
let all () = Mutex.protect lock (fun () -> List.rev !buf)

(** [time ~parent ~input name f] runs [f id] inside a new span [id]. *)
let time ?(parent = -1) ~input name f =
  let id = fresh () in
  let t0 = Util.now () in
  let r = f id in
  add { id; name; parent; input; t0; t1 = Util.now () };
  r

(** Self time in milliseconds of every span: its duration minus the
    durations of its direct children. *)
let self_times spans =
  let child = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child s.parent
          ((s.t1 -. s.t0)
          +. Option.value ~default:0. (Hashtbl.find_opt child s.parent)))
    spans;
  List.map
    (fun s ->
      let kids = Option.value ~default:0. (Hashtbl.find_opt child s.id) in
      (s, (s.t1 -. s.t0 -. kids) *. 1000.))
    spans

(** [fold spans] groups self times by root span: for each root, the
    self time of every layer name in its subtree, summed.  Returns
    [(root, [(layer, ms)])] in recording order. *)
let fold spans =
  let by_id = Hashtbl.create 1024 in
  List.iter (fun s -> Hashtbl.replace by_id s.id s) spans;
  let rec root s =
    if s.parent < 0 then s
    else
      match Hashtbl.find_opt by_id s.parent with
      | Some p -> root p
      | None -> s
  in
  let per_root = Hashtbl.create 256 in
  List.iter
    (fun (s, self) ->
      let r = root s in
      let tbl =
        match Hashtbl.find_opt per_root r.id with
        | Some t -> t
        | None ->
            let t = Hashtbl.create 16 in
            Hashtbl.replace per_root r.id t;
            t
      in
      Hashtbl.replace tbl s.name
        (self +. Option.value ~default:0. (Hashtbl.find_opt tbl s.name)))
    (self_times spans);
  List.filter_map
    (fun s ->
      if s.parent >= 0 then None
      else
        Some
          ( s,
            Hashtbl.fold (fun k v acc -> (k, v) :: acc)
              (Hashtbl.find per_root s.id) [] ))
    spans

(** Chrome trace-event JSON ("X" complete events, microseconds). *)
let chrome_json spans =
  let origin = List.fold_left (fun m s -> Float.min m s.t0) infinity spans in
  let ev s =
    Util.Obj
      [
        ("name", Util.Str s.name);
        ("ph", Util.Str "X");
        ("ts", Util.Num ((s.t0 -. origin) *. 1e6));
        ("dur", Util.Num ((s.t1 -. s.t0) *. 1e6));
        ("pid", Util.Int 1);
        ("tid", Util.Int 1);
        ( "args",
          Util.Obj
            [
              ("id", Util.Int s.id);
              ("parent", Util.Int s.parent);
              ("input", Util.Str s.input);
            ] );
      ]
  in
  Util.json_to_string (Util.Obj [ ("traceEvents", Util.Arr (List.map ev spans)) ])
