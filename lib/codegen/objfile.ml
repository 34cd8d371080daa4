(** Persistent compilation-unit artifacts; see the interface for the
    format.  The encoder and decoder below are exact mirrors: unsigned
    LEB128 varints for naturally non-negative quantities (registers,
    labels, counts, addresses), zigzag varints for immediates, and
    length-prefixed strings.  The decoder trusts nothing: every read is
    bounds-checked and every count is validated against the bytes that
    remain, so corrupt input raises {!Corrupt} instead of allocating
    absurdly or mis-decoding. *)

module Ir = Chow_ir.Ir
module Machine = Chow_machine.Machine
module Bitset = Chow_support.Bitset
module Usage = Chow_core.Usage
module Alloc_types = Chow_core.Alloc_types

exception Corrupt of string

let corrupt fmt = Printf.ksprintf (fun m -> raise (Corrupt m)) fmt

let magic = "PWNO"
(* version 2: the around-call save/restore tag [Tcallsave] split out of
   [Tsave], shifting the tag enumeration *)
let format_version = 2

type proc_art = {
  pa_code : Asm.proc_code;
  pa_open : bool;
  pa_preserved : Machine.reg list;
  pa_usage : Usage.info option;
}

type t = {
  o_procs : proc_art list;
  o_data_base : int;
  o_data_size : int;
  o_data_init : (int * int) list;
  o_externs : string list;
}

(* ----- enumerations ----- *)

let int_of_binop : Ir.binop -> int = function
  | Ir.Add -> 0
  | Ir.Sub -> 1
  | Ir.Mul -> 2
  | Ir.Div -> 3
  | Ir.Rem -> 4
  | Ir.And -> 5
  | Ir.Or -> 6
  | Ir.Xor -> 7
  | Ir.Shl -> 8
  | Ir.Shr -> 9

let binop_of_int : int -> Ir.binop = function
  | 0 -> Ir.Add
  | 1 -> Ir.Sub
  | 2 -> Ir.Mul
  | 3 -> Ir.Div
  | 4 -> Ir.Rem
  | 5 -> Ir.And
  | 6 -> Ir.Or
  | 7 -> Ir.Xor
  | 8 -> Ir.Shl
  | 9 -> Ir.Shr
  | n -> corrupt "unknown binop code %d" n

let int_of_relop : Ir.relop -> int = function
  | Ir.Eq -> 0
  | Ir.Ne -> 1
  | Ir.Lt -> 2
  | Ir.Le -> 3
  | Ir.Gt -> 4
  | Ir.Ge -> 5

let relop_of_int : int -> Ir.relop = function
  | 0 -> Ir.Eq
  | 1 -> Ir.Ne
  | 2 -> Ir.Lt
  | 3 -> Ir.Le
  | 4 -> Ir.Gt
  | 5 -> Ir.Ge
  | n -> corrupt "unknown relop code %d" n

let int_of_tag : Asm.tag -> int = function
  | Asm.Tdata -> 0
  | Asm.Tscalar -> 1
  | Asm.Tsave -> 2
  | Asm.Tcallsave -> 3
  | Asm.Tstackarg -> 4

let tag_of_int : int -> Asm.tag = function
  | 0 -> Asm.Tdata
  | 1 -> Asm.Tscalar
  | 2 -> Asm.Tsave
  | 3 -> Asm.Tcallsave
  | 4 -> Asm.Tstackarg
  | n -> corrupt "unknown tag code %d" n

(* ----- primitive writers ----- *)

let put_uvarint buf n =
  if n < 0 then invalid_arg "Objfile: uvarint of negative";
  let n = ref n in
  let continue = ref true in
  while !continue do
    let b = !n land 0x7f in
    n := !n lsr 7;
    if !n = 0 then begin
      Buffer.add_char buf (Char.chr b);
      continue := false
    end
    else Buffer.add_char buf (Char.chr (b lor 0x80))
  done

(* zigzag: negative immediates interleave with positive ones so both stay
   short.  [lsr] in the loop below terminates for the all-ones pattern of
   a former negative. *)
let put_svarint buf n =
  let z = (n lsl 1) lxor (n asr 62) in
  let z = ref z in
  let continue = ref true in
  while !continue do
    let b = !z land 0x7f in
    z := !z lsr 7;
    if !z = 0 then begin
      Buffer.add_char buf (Char.chr b);
      continue := false
    end
    else Buffer.add_char buf (Char.chr (b lor 0x80))
  done

let put_string buf s =
  put_uvarint buf (String.length s);
  Buffer.add_string buf s

let put_u32 buf n =
  Buffer.add_char buf (Char.chr (n land 0xff));
  Buffer.add_char buf (Char.chr ((n lsr 8) land 0xff));
  Buffer.add_char buf (Char.chr ((n lsr 16) land 0xff));
  Buffer.add_char buf (Char.chr ((n lsr 24) land 0xff))

(* ----- primitive readers ----- *)

type reader = { buf : string; mutable pos : int; limit : int }

let byte r =
  if r.pos >= r.limit then corrupt "truncated at offset %d" r.pos;
  let b = Char.code r.buf.[r.pos] in
  r.pos <- r.pos + 1;
  b

let get_uvarint r =
  let rec go shift acc count =
    if count > 9 then corrupt "varint too long at offset %d" r.pos;
    let b = byte r in
    let acc = acc lor ((b land 0x7f) lsl shift) in
    if b land 0x80 = 0 then acc else go (shift + 7) acc (count + 1)
  in
  go 0 0 0

let get_svarint r =
  let z = get_uvarint r in
  (z lsr 1) lxor (- (z land 1))

let get_string r =
  let n = get_uvarint r in
  if n > r.limit - r.pos then corrupt "string overruns payload (len %d)" n;
  let s = String.sub r.buf r.pos n in
  r.pos <- r.pos + n;
  s

(* a list of [n] records needs at least [n] bytes; reject absurd counts
   before allocating *)
let get_count r =
  let n = get_uvarint r in
  if n > r.limit - r.pos then corrupt "count %d overruns payload" n;
  n

let get_list r f = List.init (get_count r) (fun _ -> f r)

(* ----- instructions ----- *)

let put_inst buf (i : Asm.inst) =
  let op n = Buffer.add_char buf (Char.chr n) in
  let reg = put_uvarint buf in
  match i with
  | Asm.Li (r, n) ->
      op 0;
      reg r;
      put_svarint buf n
  | Asm.Lproc (r, f) ->
      op 1;
      reg r;
      put_string buf f
  | Asm.Move (d, s) ->
      op 2;
      reg d;
      reg s
  | Asm.Neg (d, s) ->
      op 3;
      reg d;
      reg s
  | Asm.Not (d, s) ->
      op 4;
      reg d;
      reg s
  | Asm.Binop (bop, d, a, b) ->
      op 5;
      op (int_of_binop bop);
      reg d;
      reg a;
      reg b
  | Asm.Binopi (bop, d, a, n) ->
      op 6;
      op (int_of_binop bop);
      reg d;
      reg a;
      put_svarint buf n
  | Asm.Cmp (rop, d, a, b) ->
      op 7;
      op (int_of_relop rop);
      reg d;
      reg a;
      reg b
  | Asm.Cmpi (rop, d, a, n) ->
      op 8;
      op (int_of_relop rop);
      reg d;
      reg a;
      put_svarint buf n
  | Asm.Lw (d, b, off, tag) ->
      op 9;
      reg d;
      reg b;
      put_svarint buf off;
      op (int_of_tag tag)
  | Asm.Sw (s, b, off, tag) ->
      op 10;
      reg s;
      reg b;
      put_svarint buf off;
      op (int_of_tag tag)
  | Asm.B (rop, a, b, l) ->
      op 11;
      op (int_of_relop rop);
      reg a;
      reg b;
      put_uvarint buf l
  | Asm.J l ->
      op 12;
      put_uvarint buf l
  | Asm.Jal f ->
      op 13;
      put_string buf f
  | Asm.Jal_pc pc ->
      op 14;
      put_uvarint buf pc
  | Asm.Jalr r ->
      op 15;
      reg r
  | Asm.Jr -> op 16
  | Asm.Print r ->
      op 17;
      reg r
  | Asm.Halt -> op 18

let get_reg r =
  let v = get_uvarint r in
  if v >= Machine.nregs then corrupt "register %d out of range" v;
  v

let get_inst r : Asm.inst =
  match byte r with
  | 0 ->
      let d = get_reg r in
      Asm.Li (d, get_svarint r)
  | 1 ->
      let d = get_reg r in
      Asm.Lproc (d, get_string r)
  | 2 ->
      let d = get_reg r in
      Asm.Move (d, get_reg r)
  | 3 ->
      let d = get_reg r in
      Asm.Neg (d, get_reg r)
  | 4 ->
      let d = get_reg r in
      Asm.Not (d, get_reg r)
  | 5 ->
      let bop = binop_of_int (byte r) in
      let d = get_reg r in
      let a = get_reg r in
      Asm.Binop (bop, d, a, get_reg r)
  | 6 ->
      let bop = binop_of_int (byte r) in
      let d = get_reg r in
      let a = get_reg r in
      Asm.Binopi (bop, d, a, get_svarint r)
  | 7 ->
      let rop = relop_of_int (byte r) in
      let d = get_reg r in
      let a = get_reg r in
      Asm.Cmp (rop, d, a, get_reg r)
  | 8 ->
      let rop = relop_of_int (byte r) in
      let d = get_reg r in
      let a = get_reg r in
      Asm.Cmpi (rop, d, a, get_svarint r)
  | 9 ->
      let d = get_reg r in
      let b = get_reg r in
      let off = get_svarint r in
      Asm.Lw (d, b, off, tag_of_int (byte r))
  | 10 ->
      let s = get_reg r in
      let b = get_reg r in
      let off = get_svarint r in
      Asm.Sw (s, b, off, tag_of_int (byte r))
  | 11 ->
      let rop = relop_of_int (byte r) in
      let a = get_reg r in
      let b = get_reg r in
      Asm.B (rop, a, b, get_uvarint r)
  | 12 -> Asm.J (get_uvarint r)
  | 13 -> Asm.Jal (get_string r)
  | 14 -> Asm.Jal_pc (get_uvarint r)
  | 15 -> Asm.Jalr (get_reg r)
  | 16 -> Asm.Jr
  | 17 -> Asm.Print (get_reg r)
  | 18 -> Asm.Halt
  | n -> corrupt "unknown opcode %d" n

let put_item buf = function
  | Asm.Label l ->
      Buffer.add_char buf '\000';
      put_uvarint buf l
  | Asm.Inst i ->
      Buffer.add_char buf '\001';
      put_inst buf i

let get_item r =
  match byte r with
  | 0 -> Asm.Label (get_uvarint r)
  | 1 -> Asm.Inst (get_inst r)
  | n -> corrupt "unknown item kind %d" n

(* ----- usage summaries ----- *)

let put_param_loc buf = function
  | Alloc_types.Pstack -> Buffer.add_char buf '\000'
  | Alloc_types.Preg reg ->
      Buffer.add_char buf '\001';
      put_uvarint buf reg

let get_param_loc r =
  match byte r with
  | 0 -> Alloc_types.Pstack
  | 1 -> Alloc_types.Preg (get_reg r)
  | n -> corrupt "unknown param-loc kind %d" n

let put_usage buf (u : Usage.info) =
  put_uvarint buf (Bitset.length u.Usage.mask);
  let elems = Bitset.elements u.Usage.mask in
  put_uvarint buf (List.length elems);
  List.iter (put_uvarint buf) elems;
  put_uvarint buf (List.length u.Usage.param_locs);
  List.iter (put_param_loc buf) u.Usage.param_locs

let get_usage r : Usage.info =
  let cap = get_uvarint r in
  if cap <> Machine.nregs then corrupt "usage mask capacity %d" cap;
  let elems = get_list r get_uvarint in
  List.iter (fun e -> if e >= cap then corrupt "mask bit %d out of range" e) elems;
  let mask = Bitset.of_list cap elems in
  let param_locs = get_list r get_param_loc in
  { Usage.mask; param_locs }

(* ----- procedures and units ----- *)

let put_proc buf (p : proc_art) =
  put_string buf p.pa_code.Asm.pc_name;
  let flags =
    (if p.pa_open then 1 else 0) lor
    (match p.pa_usage with Some _ -> 2 | None -> 0)
  in
  Buffer.add_char buf (Char.chr flags);
  put_uvarint buf (List.length p.pa_preserved);
  List.iter (put_uvarint buf) p.pa_preserved;
  (match p.pa_usage with None -> () | Some u -> put_usage buf u);
  put_uvarint buf (List.length p.pa_code.Asm.pc_items);
  List.iter (put_item buf) p.pa_code.Asm.pc_items

let get_proc r : proc_art =
  let name = get_string r in
  let flags = byte r in
  if flags land lnot 3 <> 0 then corrupt "unknown proc flags %#x" flags;
  let pa_open = flags land 1 <> 0 in
  let preserved = get_list r get_reg in
  let usage = if flags land 2 <> 0 then Some (get_usage r) else None in
  let items = get_list r get_item in
  {
    pa_code = { Asm.pc_name = name; pc_items = items };
    pa_open;
    pa_preserved = preserved;
    pa_usage = usage;
  }

let put_payload buf (t : t) =
  put_uvarint buf (List.length t.o_procs);
  List.iter (put_proc buf) t.o_procs;
  put_uvarint buf t.o_data_base;
  put_uvarint buf t.o_data_size;
  put_uvarint buf (List.length t.o_data_init);
  List.iter
    (fun (addr, v) ->
      put_uvarint buf addr;
      put_svarint buf v)
    t.o_data_init;
  put_uvarint buf (List.length t.o_externs);
  List.iter (put_string buf) t.o_externs

let get_payload r : t =
  let procs = get_list r get_proc in
  let data_base = get_uvarint r in
  let data_size = get_uvarint r in
  let data_init =
    get_list r (fun r ->
        let addr = get_uvarint r in
        (addr, get_svarint r))
  in
  if data_base < 0 || data_size < 0 then
    corrupt "negative data segment (base %d, size %d)" data_base data_size;
  List.iter
    (fun (addr, _) ->
      (* subtracting first keeps a huge base + size from overflowing *)
      if addr < data_base || addr - data_base >= data_size then
        corrupt "data initialiser at %d outside the unit's data [%d, %d)" addr
          data_base (data_base + data_size))
    data_init;
  let externs = get_list r get_string in
  if r.pos <> r.limit then corrupt "%d trailing payload bytes" (r.limit - r.pos);
  {
    o_procs = procs;
    o_data_base = data_base;
    o_data_size = data_size;
    o_data_init = data_init;
    o_externs = externs;
  }

(* ----- derived info and cross-checks ----- *)

let externs_of_procs (procs : Asm.proc_code list) : string list =
  let defined = List.map (fun p -> p.Asm.pc_name) procs in
  let refs = Hashtbl.create 16 in
  List.iter
    (fun p ->
      List.iter
        (function
          | Asm.Inst (Asm.Jal f) | Asm.Inst (Asm.Lproc (_, f)) ->
              if not (List.mem f defined) then Hashtbl.replace refs f ()
          | Asm.Inst _ | Asm.Label _ -> ())
        p.Asm.pc_items)
    procs;
  List.sort compare (Hashtbl.fold (fun f () acc -> f :: acc) refs [])

let contract_check (t : t) : (unit, string) result =
  let check_proc (p : proc_art) =
    let expected =
      match p.pa_usage with
      | Some u when not p.pa_open -> Usage.preserved_of_mask u.Usage.mask
      | Some _ | None -> Machine.callee_saved
    in
    if expected <> p.pa_preserved then
      Error
        (Printf.sprintf
           "%s: recorded contract does not match its usage mask"
           p.pa_code.Asm.pc_name)
    else Ok ()
  in
  List.fold_left
    (fun acc p -> match acc with Error _ -> acc | Ok () -> check_proc p)
    (Ok ()) t.o_procs

(* ----- container ----- *)

let header_len = 4 + 4 + 4 + 16

let write (t : t) : string =
  let payload = Buffer.create 4096 in
  put_payload payload t;
  let payload = Buffer.contents payload in
  let out = Buffer.create (header_len + String.length payload) in
  Buffer.add_string out magic;
  put_u32 out format_version;
  put_u32 out (String.length payload);
  Buffer.add_string out (Digest.string payload);
  Buffer.add_string out payload;
  Buffer.contents out

let read (bytes : string) : t =
  if String.length bytes < header_len then corrupt "shorter than the header";
  if String.sub bytes 0 4 <> magic then corrupt "bad magic";
  let u32 off =
    Char.code bytes.[off]
    lor (Char.code bytes.[off + 1] lsl 8)
    lor (Char.code bytes.[off + 2] lsl 16)
    lor (Char.code bytes.[off + 3] lsl 24)
  in
  let version = u32 4 in
  if version <> format_version then
    corrupt "format version %d (this reader understands %d)" version
      format_version;
  let len = u32 8 in
  if String.length bytes <> header_len + len then
    corrupt "payload length %d does not match file size %d" len
      (String.length bytes - header_len);
  let digest = String.sub bytes 12 16 in
  let payload = String.sub bytes header_len len in
  if Digest.string payload <> digest then corrupt "checksum mismatch";
  get_payload { buf = payload; pos = 0; limit = len }

(* unique temp names keep concurrent saves — parallel unit compiles in
   one process, or several processes sharing a cache directory — from
   clobbering each other's in-flight writes; rename is atomic either way *)
let tmp_seq = Atomic.make 0

let save ~path (t : t) =
  let tmp =
    Printf.sprintf "%s.%d.%d.tmp" path (Unix.getpid ())
      (Atomic.fetch_and_add tmp_seq 1)
  in
  let oc = open_out_bin tmp in
  output_string oc (write t);
  close_out oc;
  Sys.rename tmp path

let load path : t =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> read (really_input_string ic (in_channel_length ic)))
