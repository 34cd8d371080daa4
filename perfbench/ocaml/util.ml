(** Clocks, files, child processes, statistics and JSON output. *)

let now () = Unix.gettimeofday ()
let ms_since t0 = (now () -. t0) *. 1000.

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
      (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> ( try Sys.remove path with Sys_error _ -> ())
  | exception Unix.Unix_error _ -> ()

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path s =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

(** {2 Child processes} *)

external wait4 : int -> int * int = "perfbench_wait4"

type child = {
  code : int;  (** exit code, or minus the signal that killed it *)
  wall_ms : float;
  maxrss_kb : int;
  out : string;
  err : string;
}

(** [run_child ~dir argv] runs [argv] to completion with stdout and
    stderr captured in files under [dir]; the wall time spans spawn to
    reap. *)
let run_child ~dir argv =
  let out_path = Filename.concat dir "child.out"
  and err_path = Filename.concat dir "child.err" in
  let open_w p = Unix.openfile p [ Unix.O_WRONLY; O_CREAT; O_TRUNC ] 0o644 in
  let fo = open_w out_path and fe = open_w err_path in
  let t0 = now () in
  let pid = Unix.create_process argv.(0) argv Unix.stdin fo fe in
  let code, maxrss_kb = wait4 pid in
  let wall_ms = ms_since t0 in
  Unix.close fo;
  Unix.close fe;
  { code; wall_ms; maxrss_kb; out = read_file out_path; err = read_file err_path }

(** {2 Statistics} *)

let sorted xs = List.sort compare xs

(** Linear-interpolated quantile, [q] in [0, 1]. *)
let quantile q xs =
  match sorted xs with
  | [] -> nan
  | s ->
      let a = Array.of_list s in
      let n = Array.length a in
      let pos = q *. float_of_int (n - 1) in
      let lo = int_of_float pos in
      let hi = min (n - 1) (lo + 1) in
      let f = pos -. float_of_int lo in
      a.(lo) +. ((a.(hi) -. a.(lo)) *. f)

let median xs = quantile 0.5 xs
let minimum xs = List.fold_left Float.min infinity xs
let mean xs = List.fold_left ( +. ) 0. xs /. float_of_int (max 1 (List.length xs))
let sum xs = List.fold_left ( +. ) 0. xs

let geomean xs =
  exp (List.fold_left (fun acc x -> acc +. log x) 0. xs
       /. float_of_int (max 1 (List.length xs)))

(** {2 JSON} *)

type json =
  | Num of float
  | Int of int
  | Str of string
  | Bool of bool
  | Arr of json list
  | Obj of (string * json) list

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let rec json_to_string = function
  | Num f when Float.is_finite f -> Printf.sprintf "%.17g" f
  | Num _ -> "null"
  | Int i -> string_of_int i
  | Str s -> json_string s
  | Bool b -> string_of_bool b
  | Arr l -> "[" ^ String.concat ", " (List.map json_to_string l) ^ "]"
  | Obj kv ->
      "{"
      ^ String.concat ", "
          (List.map (fun (k, v) -> json_string k ^ ": " ^ json_to_string v) kv)
      ^ "}"
