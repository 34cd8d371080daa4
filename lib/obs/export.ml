(** See export.mli. *)

let is_name_char c =
  (c >= 'a' && c <= 'z')
  || (c >= 'A' && c <= 'Z')
  || (c >= '0' && c <= '9')
  || c = '_' || c = ':'

let sanitize base =
  let b = Bytes.of_string base in
  for i = 0 to Bytes.length b - 1 do
    if not (is_name_char (Bytes.get b i)) then Bytes.set b i '_'
  done;
  let s = Bytes.to_string b in
  if s = "" then "_"
  else if s.[0] >= '0' && s.[0] <= '9' then "_" ^ s
  else s

(* ["sim.proc_cycles/main"] -> family base ["sim.proc_cycles"], item
   ["main"]; everything after the FIRST slash is the item, so items may
   themselves contain slashes. *)
let split_item name =
  match String.index_opt name '/' with
  | None -> (name, None)
  | Some i ->
      ( String.sub name 0 i,
        Some (String.sub name (i + 1) (String.length name - i - 1)) )

(* OpenMetrics label-value escaping: backslash, double quote, line feed *)
let escape_label out v =
  String.iter
    (fun c ->
      match c with
      | '\\' -> out "\\\\"
      | '"' -> out "\\\""
      | '\n' -> out "\\n"
      | c -> out (String.make 1 c))
    v

type family =
  | Counter of (string option * int) list
  | Gauge of (string option * int) list
  | Histogram of (string option * (int * int) list * int) list
      (** [(item, buckets, sum)] — buckets non-cumulative, ascending *)

let add_sample tbl fam make merge sample =
  match Hashtbl.find_opt tbl fam with
  | None -> Hashtbl.replace tbl fam (make sample)
  | Some f -> Hashtbl.replace tbl fam (merge f sample)

let labels out ?le item =
  match (item, le) with
  | None, None -> ()
  | _ ->
      out "{";
      (match item with
      | None -> ()
      | Some it ->
          out "item=\"";
          escape_label out it;
          out "\"";
          if le <> None then out ",");
      (match le with
      | None -> ()
      | Some le ->
          out "le=\"";
          out le;
          out "\"");
      out "}"

let render (snap : Metrics.typed_snapshot) =
  let tbl : (string, family) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun (name, v) ->
      let base, item = split_item name in
      add_sample tbl (sanitize base)
        (fun s -> Counter [ s ])
        (fun f s ->
          match f with Counter l -> Counter (l @ [ s ]) | f -> f)
        (item, v))
    snap.Metrics.t_counters;
  List.iter
    (fun (name, v) ->
      let base, item = split_item name in
      add_sample tbl (sanitize base)
        (fun s -> Gauge [ s ])
        (fun f s -> match f with Gauge l -> Gauge (l @ [ s ]) | f -> f)
        (item, v))
    snap.Metrics.t_gauges;
  List.iter
    (fun (name, buckets, sum) ->
      let base, item = split_item name in
      add_sample tbl (sanitize base)
        (fun s -> Histogram [ s ])
        (fun f s ->
          match f with Histogram l -> Histogram (l @ [ s ]) | f -> f)
        (item, buckets, sum))
    snap.Metrics.t_histograms;
  let fams =
    Hashtbl.fold (fun fam f acc -> (fam, f) :: acc) tbl []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  let b = Buffer.create 4096 in
  let out = Buffer.add_string b in
  List.iter
    (fun (fam, f) ->
      match f with
      | Counter samples ->
          out (Printf.sprintf "# TYPE %s counter\n" fam);
          List.iter
            (fun (item, v) ->
              out fam;
              out "_total";
              labels out item;
              out (Printf.sprintf " %d\n" v))
            samples
      | Gauge samples ->
          out (Printf.sprintf "# TYPE %s gauge\n" fam);
          List.iter
            (fun (item, v) ->
              out fam;
              labels out item;
              out (Printf.sprintf " %d\n" v))
            samples
      | Histogram samples ->
          out (Printf.sprintf "# TYPE %s histogram\n" fam);
          List.iter
            (fun (item, buckets, sum) ->
              let cum = ref 0 in
              List.iter
                (fun (ub, n) ->
                  cum := !cum + n;
                  out fam;
                  out "_bucket";
                  labels out ?le:(Some (string_of_int ub)) item;
                  out (Printf.sprintf " %d\n" !cum))
                buckets;
              out fam;
              out "_bucket";
              labels out ?le:(Some "+Inf") item;
              out (Printf.sprintf " %d\n" !cum);
              out fam;
              out "_sum";
              labels out item;
              out (Printf.sprintf " %d\n" sum);
              out fam;
              out "_count";
              labels out item;
              out (Printf.sprintf " %d\n" !cum))
            samples)
    fams;
  out "# EOF\n";
  Buffer.contents b

let page () = render (Metrics.typed_snapshot ())
