(** Pre-decoded threaded execution engine: the fast path behind {!Sim.run}.

    [decode] compiles a linked {!Asm.program} once into a flat
    struct-of-arrays form — an int opcode per pc with the {!Ir.binop} /
    {!Ir.relop} / {!Asm.tag} variant folded into the opcode number and all
    operands pre-resolved into three int operand arrays — plus a per-pc
    procedure-meta index replacing the metas hashtable.  [execute] then
    interprets that form in a tight loop whose dispatch is a single dense
    integer match (a jump table), with no per-cycle variant walking and no
    hashing on the call path.

    The dynamic contract checker is allocation-free: the shadow stack is a
    set of parallel int arrays (return pc, sp at entry, meta index, snapshot
    base) and the per-call register snapshots live in one flat int buffer
    indexed by frame; both grow geometrically and are reused across the
    run.  A call snapshots only what the callee can write: [decode] runs a
    may-write analysis over the linked code ({!may_write}) and keeps, of
    each contract's preserved registers, those some instruction the
    callee's activation can reach writes, in the published order.  The
    checker traps any call off a contract entry and any return off the
    call site, so a register no reachable instruction writes cannot change
    while it runs; dropping it never changes a verdict, and the first
    clobber reported, hence the error text, is the same.  Under IPRA a
    closed procedure preserves everything outside its usage mask, most of
    the register file, and can write a handful: at [-O3] the 13 paper
    programs' contracts list 3,335 preserved registers, of which 66 are
    snapshot.

    Memory is paged and materialised lazily (see [load] and [store]), so a
    run costs the pages it writes rather than a zero-filled 8 MiB array.
    The decoded engine is behaviourally identical to
    {!Sim.run_reference} — same outcomes, counters, per-pc profiles and
    [Runtime_error] messages — which the differential test suite enforces
    on every workload and on random programs.

    Decode is total on linked programs: the only {!Asm.inst} constructors
    it cannot specialize ([Jal], [Lproc]) are pre-link artifacts, decoded
    to a poison opcode that traps exactly like the reference engine does,
    and only if actually executed. *)

module Machine = Chow_machine.Machine
module Asm = Chow_codegen.Asm
module Ir = Chow_ir.Ir
module Trace = Chow_obs.Trace
module Metrics = Chow_obs.Metrics

exception Runtime_error of string

let error fmt = Format.kasprintf (fun m -> raise (Runtime_error m)) fmt

let tag_index = function
  | Asm.Tdata -> 0
  | Asm.Tscalar -> 1
  | Asm.Tsave -> 2
  | Asm.Tcallsave -> 3
  | Asm.Tstackarg -> 4

type outcome = {
  output : int list;
  cycles : int;
  calls : int;
  data_loads : int;
  data_stores : int;
  scalar_loads : int;  (** scalar + save/restore + stack-arg loads *)
  scalar_stores : int;
  save_loads : int;  (** the save/restore component alone, both kinds *)
  save_stores : int;
  call_save_loads : int;  (** the around-call subset of [save_loads] *)
  call_save_stores : int;
  pc_counts : int array;
      (** execution count of each pc, when run with [profile = true];
          empty otherwise *)
}

(* Opcode numbering: dense from 0 so the dispatch match compiles to a jump
   table.  Variant sub-codes (binop, relop, tag) are folded in as offsets:
   [k_add + binop], [k_beq + relop], [k_lw + tag]. *)
let k_halt = 0
let k_li = 1 (* a=dst  b=imm *)
let k_move = 2 (* a=dst  b=src *)
let k_neg = 3
let k_not = 4
let k_add = 5 (* +0..9 = add sub mul div rem and or xor shl shr; a,b,c regs *)
let k_addi = 15 (* same, c = immediate *)
let k_cmp = 25 (* +0..5 = eq ne lt le gt ge; a=dst b,c regs *)
let k_cmpi = 31 (* same, c = immediate *)
let k_lw = 37 (* +tag; a=dst b=base c=offset *)
let k_sw = 42 (* +tag; a=src b=base c=offset *)
let k_b = 47 (* +relop; a,b regs, c=target *)
let k_j = 53 (* a=target *)
let k_jal = 54 (* a=target *)
let k_jalr = 55 (* a=reg *)
let k_jr = 56
let k_print = 57 (* a=reg *)
let k_unlinked = 58

let binop_code = function
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

let relop_code = function
  | Ir.Eq -> 0
  | Ir.Ne -> 1
  | Ir.Lt -> 2
  | Ir.Le -> 3
  | Ir.Gt -> 4
  | Ir.Ge -> 5

type t = {
  ops : int array;
  fa : int array;
  fb : int array;
  fc : int array;
  prog : Asm.program;  (** retained for data layout and block pcs *)
  entries : int array;  (** procedure entries sorted by address *)
  names : string array;
  meta_of_pc : int array;  (** pc -> index into the meta arrays, or -1 *)
  meta_name : string array;  (** last slot is the "<unknown>" sentinel *)
  meta_preserved : int array array;
  unknown_meta : int;
  has_metas : bool;
}

(** Call-path probes, fired only on the call/return path (never per
    instruction): the executing cycle count and the running save/restore
    totals at the moment of the transfer, so a profiler can segment them
    by activation.  [h_call]'s [site] is the pc of the call instruction;
    both counters snapshots are taken after the transfer instruction
    itself has been counted. *)
type hooks = {
  h_call :
    site:int ->
    target:int ->
    cycles:int ->
    contract_saves:int ->
    contract_restores:int ->
    call_saves:int ->
    call_restores:int ->
    unit;
  h_return :
    cycles:int ->
    contract_saves:int ->
    contract_restores:int ->
    call_saves:int ->
    call_restores:int ->
    unit;
}

(* Writes to the hardwired zero register are discarded by redirecting them
   to a dump slot one past the real register file; reads then never need a
   zero check because regs.(0) is never written. *)
let dst r = if r = Machine.zero then Machine.nregs else r

(** [may_write ~ops ~fa ~fc meta_of_pc entries] is, for each contract [m]
    entered at [entries.(m)], the set of registers an activation of it can
    write, as a bitmask over [Machine.nregs] (31 registers, so one int
    holds the set).  It reads only the decoded instructions, never the
    usage masks the checker exists to check.  A walk from the entry
    follows fall-through and every [B] and [J] target, wherever it lands,
    and stops at [Jr], [Halt], unlinked instructions and out-of-range pcs;
    a call continues at its return site.  Each reached instruction adds
    its destination register, a call adds [ra].  [Jal_pc t] adds an edge
    to the contract entered at [t], [Jalr] one to every contract, and the
    union over those edges is iterated to a fixpoint, which covers
    recursion.

    Sound while the checker is armed: it traps a call to any pc that is
    not a contract entry and a return anywhere but the call site, so an
    activation executes only pcs its walk (or a callee's) reaches. *)
let may_write ~ops ~fa ~fc (meta_of_pc : int array) (entries : int array) :
    int array =
  let n = Array.length ops in
  let nm = Array.length entries in
  let w = Array.make nm 0 in
  let callees = Array.make nm [] in
  let calls_any = Array.make nm false in
  (* [seen] stamps each pc with the walk that reached it, numbered 1..255
     and wrapping with a reset, so a walk reaches each pc once.  A byte per
     pc and a 64-slot stack to start with usually fit the minor heap: a
     fresh process pays page faults for every major-heap array *)
  let seen = Bytes.make n '\000' in
  let stack = ref (Array.make 64 0) and top = ref 0 in
  for m = 0 to nm - 1 do
    let stamp = Char.chr ((m mod 255) + 1) in
    if m > 0 && m mod 255 = 0 then Bytes.fill seen 0 n '\000';
    let push pc =
      if pc >= 0 && pc < n && Bytes.unsafe_get seen pc <> stamp then begin
        Bytes.unsafe_set seen pc stamp;
        if !top = Array.length !stack then begin
          let bigger = Array.make (2 * !top) 0 in
          Array.blit !stack 0 bigger 0 !top;
          stack := bigger
        end;
        !stack.(!top) <- pc;
        incr top
      end
    in
    let acc = ref 0 in
    push entries.(m);
    while !top > 0 do
      decr top;
      (* run from a pushed pc along fall-through and jumps, pushing branch
         targets, until a pc with no successor or one already reached *)
      let pc = ref !stack.(!top) in
      while !pc >= 0 do
        let i = !pc in
        let op = ops.(i) in
        pc := -1;
        if op >= k_li && op < k_sw then begin
          (* fa is the destination, the zero register already redirected
             to the dump slot [Machine.nregs], which no contract lists *)
          acc := !acc lor (1 lsl fa.(i));
          pc := i + 1
        end
        else if op >= k_b && op < k_j then begin
          push fc.(i);
          pc := i + 1
        end
        else if op = k_j then pc := fa.(i)
        else if op = k_jal then begin
          acc := !acc lor (1 lsl Machine.ra);
          let t = fa.(i) in
          let c = if t >= 0 && t < n then meta_of_pc.(t) else -1 in
          if c >= 0 then callees.(m) <- c :: callees.(m);
          pc := i + 1
        end
        else if op = k_jalr then begin
          acc := !acc lor (1 lsl Machine.ra);
          calls_any.(m) <- true;
          pc := i + 1
        end
        else if op <> k_halt && op <> k_jr && op <> k_unlinked then
          pc := i + 1;
        let p = !pc in
        if p >= 0 then
          if p < n && Bytes.unsafe_get seen p <> stamp then
            Bytes.unsafe_set seen p stamp
          else pc := -1
      done
    done;
    w.(m) <- !acc
  done;
  let changed = ref true in
  while !changed do
    changed := false;
    let all = Array.fold_left ( lor ) 0 w in
    for m = 0 to nm - 1 do
      let acc =
        List.fold_left (fun acc c -> acc lor w.(c)) w.(m) callees.(m)
      in
      let acc = if calls_any.(m) then acc lor all else acc in
      if acc <> w.(m) then begin
        w.(m) <- acc;
        changed := true
      end
    done
  done;
  w

let decode (prog : Asm.program) : t =
  let code = prog.Asm.code in
  let n = Array.length code in
  let ops = Array.make n 0 in
  let fa = Array.make n 0 in
  let fb = Array.make n 0 in
  let fc = Array.make n 0 in
  for i = 0 to n - 1 do
    let op, a, b, c =
      match code.(i) with
      | Asm.Halt -> (k_halt, 0, 0, 0)
      | Asm.Li (r, imm) -> (k_li, dst r, imm, 0)
      | Asm.Lproc _ | Asm.Jal _ -> (k_unlinked, 0, 0, 0)
      | Asm.Move (d, s) -> (k_move, dst d, s, 0)
      | Asm.Neg (d, s) -> (k_neg, dst d, s, 0)
      | Asm.Not (d, s) -> (k_not, dst d, s, 0)
      | Asm.Binop (op, d, a, b) -> (k_add + binop_code op, dst d, a, b)
      | Asm.Binopi (op, d, a, imm) -> (k_addi + binop_code op, dst d, a, imm)
      | Asm.Cmp (op, d, a, b) -> (k_cmp + relop_code op, dst d, a, b)
      | Asm.Cmpi (op, d, a, imm) -> (k_cmpi + relop_code op, dst d, a, imm)
      | Asm.Lw (d, b, off, tag) -> (k_lw + tag_index tag, dst d, b, off)
      | Asm.Sw (s, b, off, tag) -> (k_sw + tag_index tag, s, b, off)
      | Asm.B (op, a, b, l) -> (k_b + relop_code op, a, b, l)
      | Asm.J l -> (k_j, l, 0, 0)
      | Asm.Jal_pc t -> (k_jal, t, 0, 0)
      | Asm.Jalr r -> (k_jalr, r, 0, 0)
      | Asm.Jr -> (k_jr, 0, 0, 0)
      | Asm.Print r -> (k_print, r, 0, 0)
    in
    ops.(i) <- op;
    fa.(i) <- a;
    fb.(i) <- b;
    fc.(i) <- c
  done;
  let entries, names = Asm.proc_table prog in
  let meta_of_pc, metas = Asm.meta_table prog in
  let nmetas = Array.length metas in
  let meta_name = Array.make (nmetas + 1) "<unknown>" in
  let meta_preserved = Array.make (nmetas + 1) [||] in
  let may =
    may_write ~ops ~fa ~fc meta_of_pc
      (Array.of_list (List.map fst prog.Asm.metas))
  in
  (* snapshot only the preserved registers the callee can write, in the
     published order, so the first clobber reported is unchanged; an
     out-of-range register is kept, to fail as it would unpruned *)
  Array.iteri
    (fun i (m : Asm.meta) ->
      meta_name.(i) <- m.Asm.m_name;
      meta_preserved.(i) <-
        Array.of_list
          (List.filter
             (fun r ->
               r < 0 || r >= Machine.nregs || may.(i) land (1 lsl r) <> 0)
             m.Asm.m_preserved))
    metas;
  {
    ops;
    fa;
    fb;
    fc;
    prog;
    entries;
    names;
    meta_of_pc;
    meta_name;
    meta_preserved;
    unknown_meta = nmetas;
    has_metas = nmetas > 0;
  }

(** Which procedure the given pc belongs to: the nearest entry at or below
    it.  Used only on error paths, to give traps a source context. *)
let attribute_pc (entries : int array) (names : string array) pc =
  let n = Array.length entries in
  if n = 0 then "<unknown>"
  else if pc < entries.(0) then "<stub>"
  else begin
    (* binary search for the greatest entry <= pc *)
    let lo = ref 0 and hi = ref (n - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi + 1) / 2 in
      if entries.(mid) <= pc then lo := mid else hi := mid - 1
    done;
    names.(!lo)
  end

let proc_name_of (prog : Asm.program) pc =
  let entries, names = Asm.proc_table prog in
  attribute_pc entries names pc

(** [attribute_cycles prog pc_counts] folds a per-pc execution profile into
    per-procedure cycle totals, in address order.  Cycles spent before the
    first procedure entry (the startup stub) are reported under
    ["<stub>"] when nonzero.  An empty profile attributes nothing. *)
let attribute_cycles (prog : Asm.program) (pc_counts : int array) :
    (string * int) list =
  let entries, names = Asm.proc_table prog in
  let n = Array.length entries in
  if n = 0 || Array.length pc_counts = 0 then []
  else begin
    let ncode = Array.length pc_counts in
    let sum lo hi =
      let acc = ref 0 in
      for pc = lo to min hi (ncode - 1) do
        acc := !acc + pc_counts.(pc)
      done;
      !acc
    in
    let procs =
      List.init n (fun i ->
          let hi = if i + 1 < n then entries.(i + 1) - 1 else ncode - 1 in
          (names.(i), sum entries.(i) hi))
    in
    let stub = sum 0 (entries.(0) - 1) in
    if stub > 0 then ("<stub>", stub) :: procs else procs
  end

(** [block_counts prog o] is the execution count of each basic block of
    [prog], read off [o]'s per-pc profile; empty when [o] carries none. *)
let block_counts (prog : Asm.program) (o : outcome) =
  if Array.length o.pc_counts = 0 then []
  else List.map (fun (pc, key) -> (key, o.pc_counts.(pc))) prog.Asm.block_pcs

(* counter handles shared by both engines: same names, same totals *)
let m_runs = Metrics.counter "sim.runs"
let m_cycles = Metrics.counter "sim.cycles"
let m_calls = Metrics.counter "sim.calls"
let m_data_loads = Metrics.counter "sim.data_loads"
let m_data_stores = Metrics.counter "sim.data_stores"
let m_scalar_loads = Metrics.counter "sim.scalar_loads"
let m_scalar_stores = Metrics.counter "sim.scalar_stores"
let m_save_loads = Metrics.counter "sim.save_loads"
let m_save_stores = Metrics.counter "sim.save_stores"
let m_call_save_loads = Metrics.counter "sim.call_save_loads"
let m_call_save_stores = Metrics.counter "sim.call_save_stores"

(** Publish an outcome's counters into the metrics registry (used by both
    engines after a completed run, so the totals match whichever engine
    executed). *)
let publish_metrics (prog : Asm.program) (o : outcome) =
  if Metrics.is_on () then begin
    Metrics.incr m_runs;
    Metrics.add m_cycles o.cycles;
    Metrics.add m_calls o.calls;
    Metrics.add m_data_loads o.data_loads;
    Metrics.add m_data_stores o.data_stores;
    Metrics.add m_scalar_loads o.scalar_loads;
    Metrics.add m_scalar_stores o.scalar_stores;
    Metrics.add m_save_loads o.save_loads;
    Metrics.add m_save_stores o.save_stores;
    Metrics.add m_call_save_loads o.call_save_loads;
    Metrics.add m_call_save_stores o.call_save_stores;
    List.iter
      (fun (name, c) ->
        Metrics.add (Metrics.counter ("sim.proc_cycles/" ^ name)) c)
      (attribute_cycles prog o.pc_counts)
  end

(* Paged memory.  The [Machine.mem_words] address space is cut into pages
   of [page_words]; every slot of the page table starts out pointing at one
   all-zero page, and the first store into a slot gives it a page of its
   own.  A run so pays for the pages it writes, not for the whole address
   space.  Every access is bounds-checked against [Machine.mem_words]
   before it indexes, so the unchecked page index is always in range. *)
let page_bits = 12
let page_words = 1 lsl page_bits
let page_mask = page_words - 1
let n_pages = (Machine.mem_words + page_mask) lsr page_bits

let[@inline] load (pages : int array array) addr =
  Array.unsafe_get
    (Array.unsafe_get pages (addr lsr page_bits))
    (addr land page_mask)

(* the cold half of [store]: the slot still holds the zero page *)
let[@inline never] materialise (pages : int array array) addr v =
  let p = Array.make page_words 0 in
  pages.(addr lsr page_bits) <- p;
  p.(addr land page_mask) <- v

let[@inline] store (pages : int array array) zero_page addr v =
  let p = Array.unsafe_get pages (addr lsr page_bits) in
  if p == zero_page then materialise pages addr v
  else Array.unsafe_set p (addr land page_mask) v

let execute ?(fuel = 500_000_000) ?(check = true) ?(profile = false) ?hooks
    (t : t) : outcome =
  let prog = t.prog in
  let ops = t.ops and fa = t.fa and fb = t.fb and fc = t.fc in
  let ncode = Array.length ops in
  let pc_counts = if profile then Array.make ncode 0 else [||] in
  let mem_words = Machine.mem_words in
  (* one zero page per run: the daemon's worker domains never share it *)
  let zero_page = Array.make page_words 0 in
  let pages = Array.make n_pages zero_page in
  if prog.Asm.data_size < 0 || prog.Asm.data_size > mem_words then
    error "data segment of %d words does not fit memory (%d words)"
      prog.Asm.data_size mem_words;
  List.iter
    (fun (addr, v) ->
      if addr < 0 || addr >= mem_words then
        error "data initialiser at %d is outside memory (%d words)" addr
          mem_words;
      store pages zero_page addr v)
    prog.Asm.data_init;
  (* one extra slot past the register file: the dump target for writes to
     the zero register (see [dst]) *)
  let regs = Array.make (Machine.nregs + 1) 0 in
  regs.(Machine.sp) <- mem_words;
  let cycles = ref 0 and calls = ref 0 in
  let loads = Array.make 5 0 and stores = Array.make 5 0 in
  let output = ref [] in
  (* contract-checker shadow stack: parallel int arrays, no allocation per
     call — frames and register snapshots are written into preallocated
     buffers that grow geometrically and are reused for the whole run *)
  let frame_cap = ref 64 in
  let fr_ret = ref (Array.make !frame_cap 0) in
  let fr_sp = ref (Array.make !frame_cap 0) in
  let fr_meta = ref (Array.make !frame_cap 0) in
  let fr_base = ref (Array.make !frame_cap 0) in
  let depth = ref 0 in
  let snap_cap = ref 256 in
  let snap = ref (Array.make !snap_cap 0) in
  let snap_top = ref 0 in
  let grow_frames () =
    let c = !frame_cap * 2 in
    let g a =
      let n = Array.make c 0 in
      Array.blit !a 0 n 0 !frame_cap;
      a := n
    in
    g fr_ret;
    g fr_sp;
    g fr_meta;
    g fr_base;
    frame_cap := c
  in
  let grow_snap need =
    let c = ref (!snap_cap * 2) in
    while !c < need do
      c := !c * 2
    done;
    let n = Array.make !c 0 in
    Array.blit !snap 0 n 0 !snap_top;
    snap := n;
    snap_cap := !c
  in
  let overflow_limit = prog.Asm.data_size + 64 in
  (* [pc] and [cycles] stay unboxed locals of the loop below: the helpers
     that need them take them as arguments rather than capturing the refs *)
  let oob addr pc =
    error "memory access out of bounds: %d (pc %d, in %s)" addr pc
      (attribute_pc t.entries t.names pc)
  in
  (* tracing is sampled on the call path only (every 256th call), and the
     enabled check is hoisted out of the loop: the hot path is untouched
     when tracing is off *)
  let tr = Trace.is_on () in
  let do_call site target cycles =
    let return_pc = site + 1 in
    incr calls;
    if tr && !calls land 255 = 0 then
      Trace.counter "sim.traffic"
        [
          ("cycles", cycles);
          ("calls", !calls);
          ("scalar_loads", loads.(1) + loads.(2) + loads.(3) + loads.(4));
          ("scalar_stores", stores.(1) + stores.(2) + stores.(3) + stores.(4));
        ];
    if regs.(Machine.sp) <= overflow_limit then
      error "stack overflow (pc %d, in %s)" site
        (attribute_pc t.entries t.names site);
    if target < 0 || target >= ncode then
      error "call to invalid address %d (pc %d, in %s)" target site
        (attribute_pc t.entries t.names site);
    regs.(Machine.ra) <- return_pc;
    (match hooks with
    | Some h ->
        h.h_call ~site ~target ~cycles
          ~contract_saves:stores.(2) ~contract_restores:loads.(2)
          ~call_saves:stores.(3) ~call_restores:loads.(3)
    | None -> ());
    if check then begin
      let m =
        let m = t.meta_of_pc.(target) in
        if m >= 0 then m
        else if t.has_metas then
          error "call to %d, which is not a procedure entry (pc %d, in %s)"
            target site
            (attribute_pc t.entries t.names site)
        else t.unknown_meta
      in
      if !depth = !frame_cap then grow_frames ();
      let d = !depth in
      !fr_ret.(d) <- return_pc;
      !fr_sp.(d) <- regs.(Machine.sp);
      !fr_meta.(d) <- m;
      !fr_base.(d) <- !snap_top;
      depth := d + 1;
      let pres = t.meta_preserved.(m) in
      let n = Array.length pres in
      if !snap_top + n > !snap_cap then grow_snap (!snap_top + n);
      let sn = !snap and top = !snap_top in
      for k = 0 to n - 1 do
        sn.(top + k) <- regs.(pres.(k))
      done;
      snap_top := top + n
    end;
    target
  in
  let do_return pc cycles =
    let target = regs.(Machine.ra) in
    (match hooks with
    | Some h ->
        h.h_return ~cycles ~contract_saves:stores.(2)
          ~contract_restores:loads.(2) ~call_saves:stores.(3)
          ~call_restores:loads.(3)
    | None -> ());
    if check then begin
      if !depth = 0 then
        error "return with empty call stack (pc %d, in %s)" pc
          (attribute_pc t.entries t.names pc);
      let d = !depth - 1 in
      depth := d;
      let m = !fr_meta.(d) in
      let callee = t.meta_name.(m) in
      if target <> !fr_ret.(d) then
        error "%s: returned to %d, expected %d" callee target !fr_ret.(d);
      if regs.(Machine.sp) <> !fr_sp.(d) then
        error "%s: stack pointer not restored (%d <> %d)" callee
          regs.(Machine.sp) !fr_sp.(d);
      let pres = t.meta_preserved.(m) in
      let base = !fr_base.(d) in
      let sn = !snap in
      for k = 0 to Array.length pres - 1 do
        let r = pres.(k) in
        if regs.(r) <> sn.(base + k) then
          error "%s: clobbered preserved register %s (%d <> %d)" callee
            (Machine.name r) regs.(r)
            sn.(base + k)
      done;
      snap_top := base
    end;
    target
  in
  let pc = ref prog.Asm.entry in
  let running = ref true in
  while !running do
    if !cycles >= fuel then
      error "out of fuel after %d cycles (pc %d, in %s)" fuel !pc
        (attribute_pc t.entries t.names !pc);
    let i = !pc in
    if i < 0 || i >= ncode then error "pc out of range: %d" i;
    if profile then pc_counts.(i) <- pc_counts.(i) + 1;
    incr cycles;
    let next = i + 1 in
    let a = Array.unsafe_get fa i
    and b = Array.unsafe_get fb i
    and c = Array.unsafe_get fc i in
    match Array.unsafe_get ops i with
    | 0 (* halt *) -> running := false
    | 1 (* li *) ->
        regs.(a) <- b;
        pc := next
    | 2 (* move *) ->
        regs.(a) <- regs.(b);
        pc := next
    | 3 (* neg *) ->
        regs.(a) <- -regs.(b);
        pc := next
    | 4 (* not *) ->
        regs.(a) <- (if regs.(b) = 0 then 1 else 0);
        pc := next
    | 5 (* add *) ->
        regs.(a) <- regs.(b) + regs.(c);
        pc := next
    | 6 (* sub *) ->
        regs.(a) <- regs.(b) - regs.(c);
        pc := next
    | 7 (* mul *) ->
        regs.(a) <- regs.(b) * regs.(c);
        pc := next
    | 8 (* div *) ->
        let d = regs.(c) in
        if d = 0 then
          error "division by zero (pc %d, in %s)" i
            (attribute_pc t.entries t.names i);
        regs.(a) <- regs.(b) / d;
        pc := next
    | 9 (* rem *) ->
        let d = regs.(c) in
        if d = 0 then
          error "remainder by zero (pc %d, in %s)" i
            (attribute_pc t.entries t.names i);
        regs.(a) <- regs.(b) mod d;
        pc := next
    | 10 (* and *) ->
        regs.(a) <- regs.(b) land regs.(c);
        pc := next
    | 11 (* or *) ->
        regs.(a) <- regs.(b) lor regs.(c);
        pc := next
    | 12 (* xor *) ->
        regs.(a) <- regs.(b) lxor regs.(c);
        pc := next
    | 13 (* shl *) ->
        regs.(a) <- regs.(b) lsl regs.(c);
        pc := next
    | 14 (* shr *) ->
        regs.(a) <- regs.(b) asr regs.(c);
        pc := next
    | 15 (* addi *) ->
        regs.(a) <- regs.(b) + c;
        pc := next
    | 16 (* subi *) ->
        regs.(a) <- regs.(b) - c;
        pc := next
    | 17 (* muli *) ->
        regs.(a) <- regs.(b) * c;
        pc := next
    | 18 (* divi *) ->
        if c = 0 then
          error "division by zero (pc %d, in %s)" i
            (attribute_pc t.entries t.names i);
        regs.(a) <- regs.(b) / c;
        pc := next
    | 19 (* remi *) ->
        if c = 0 then
          error "remainder by zero (pc %d, in %s)" i
            (attribute_pc t.entries t.names i);
        regs.(a) <- regs.(b) mod c;
        pc := next
    | 20 (* andi *) ->
        regs.(a) <- regs.(b) land c;
        pc := next
    | 21 (* ori *) ->
        regs.(a) <- regs.(b) lor c;
        pc := next
    | 22 (* xori *) ->
        regs.(a) <- regs.(b) lxor c;
        pc := next
    | 23 (* shli *) ->
        regs.(a) <- regs.(b) lsl c;
        pc := next
    | 24 (* shri *) ->
        regs.(a) <- regs.(b) asr c;
        pc := next
    | 25 (* cmp eq *) ->
        regs.(a) <- (if regs.(b) = regs.(c) then 1 else 0);
        pc := next
    | 26 (* cmp ne *) ->
        regs.(a) <- (if regs.(b) <> regs.(c) then 1 else 0);
        pc := next
    | 27 (* cmp lt *) ->
        regs.(a) <- (if regs.(b) < regs.(c) then 1 else 0);
        pc := next
    | 28 (* cmp le *) ->
        regs.(a) <- (if regs.(b) <= regs.(c) then 1 else 0);
        pc := next
    | 29 (* cmp gt *) ->
        regs.(a) <- (if regs.(b) > regs.(c) then 1 else 0);
        pc := next
    | 30 (* cmp ge *) ->
        regs.(a) <- (if regs.(b) >= regs.(c) then 1 else 0);
        pc := next
    | 31 (* cmpi eq *) ->
        regs.(a) <- (if regs.(b) = c then 1 else 0);
        pc := next
    | 32 (* cmpi ne *) ->
        regs.(a) <- (if regs.(b) <> c then 1 else 0);
        pc := next
    | 33 (* cmpi lt *) ->
        regs.(a) <- (if regs.(b) < c then 1 else 0);
        pc := next
    | 34 (* cmpi le *) ->
        regs.(a) <- (if regs.(b) <= c then 1 else 0);
        pc := next
    | 35 (* cmpi gt *) ->
        regs.(a) <- (if regs.(b) > c then 1 else 0);
        pc := next
    | 36 (* cmpi ge *) ->
        regs.(a) <- (if regs.(b) >= c then 1 else 0);
        pc := next
    | 37 (* lw data *) ->
        let addr = regs.(b) + c in
        if addr < 0 || addr >= mem_words then oob addr i;
        regs.(a) <- load pages addr;
        loads.(0) <- loads.(0) + 1;
        pc := next
    | 38 (* lw scalar *) ->
        let addr = regs.(b) + c in
        if addr < 0 || addr >= mem_words then oob addr i;
        regs.(a) <- load pages addr;
        loads.(1) <- loads.(1) + 1;
        pc := next
    | 39 (* lw save *) ->
        let addr = regs.(b) + c in
        if addr < 0 || addr >= mem_words then oob addr i;
        regs.(a) <- load pages addr;
        loads.(2) <- loads.(2) + 1;
        pc := next
    | 40 (* lw callsave *) ->
        let addr = regs.(b) + c in
        if addr < 0 || addr >= mem_words then oob addr i;
        regs.(a) <- load pages addr;
        loads.(3) <- loads.(3) + 1;
        pc := next
    | 41 (* lw stackarg *) ->
        let addr = regs.(b) + c in
        if addr < 0 || addr >= mem_words then oob addr i;
        regs.(a) <- load pages addr;
        loads.(4) <- loads.(4) + 1;
        pc := next
    | 42 (* sw data *) ->
        let addr = regs.(b) + c in
        if addr < 0 || addr >= mem_words then oob addr i;
        store pages zero_page addr regs.(a);
        stores.(0) <- stores.(0) + 1;
        pc := next
    | 43 (* sw scalar *) ->
        let addr = regs.(b) + c in
        if addr < 0 || addr >= mem_words then oob addr i;
        store pages zero_page addr regs.(a);
        stores.(1) <- stores.(1) + 1;
        pc := next
    | 44 (* sw save *) ->
        let addr = regs.(b) + c in
        if addr < 0 || addr >= mem_words then oob addr i;
        store pages zero_page addr regs.(a);
        stores.(2) <- stores.(2) + 1;
        pc := next
    | 45 (* sw callsave *) ->
        let addr = regs.(b) + c in
        if addr < 0 || addr >= mem_words then oob addr i;
        store pages zero_page addr regs.(a);
        stores.(3) <- stores.(3) + 1;
        pc := next
    | 46 (* sw stackarg *) ->
        let addr = regs.(b) + c in
        if addr < 0 || addr >= mem_words then oob addr i;
        store pages zero_page addr regs.(a);
        stores.(4) <- stores.(4) + 1;
        pc := next
    | 47 (* b eq *) -> pc := (if regs.(a) = regs.(b) then c else next)
    | 48 (* b ne *) -> pc := (if regs.(a) <> regs.(b) then c else next)
    | 49 (* b lt *) -> pc := (if regs.(a) < regs.(b) then c else next)
    | 50 (* b le *) -> pc := (if regs.(a) <= regs.(b) then c else next)
    | 51 (* b gt *) -> pc := (if regs.(a) > regs.(b) then c else next)
    | 52 (* b ge *) -> pc := (if regs.(a) >= regs.(b) then c else next)
    | 53 (* j *) -> pc := a
    | 54 (* jal *) -> pc := do_call i a !cycles
    | 55 (* jalr *) -> pc := do_call i regs.(a) !cycles
    | 56 (* jr *) -> pc := do_return i !cycles
    | 57 (* print *) ->
        output := regs.(a) :: !output;
        pc := next
    | 58 (* unlinked Jal/Lproc *) ->
        error "unlinked instruction at %d (in %s)" i
          (attribute_pc t.entries t.names i)
    | _ -> assert false
  done;
  let outcome =
    {
      output = List.rev !output;
      cycles = !cycles;
      calls = !calls;
      data_loads = loads.(0);
      data_stores = stores.(0);
      scalar_loads = loads.(1) + loads.(2) + loads.(3) + loads.(4);
      scalar_stores = stores.(1) + stores.(2) + stores.(3) + stores.(4);
      save_loads = loads.(2) + loads.(3);
      save_stores = stores.(2) + stores.(3);
      call_save_loads = loads.(3);
      call_save_stores = stores.(3);
      pc_counts;
    }
  in
  publish_metrics prog outcome;
  outcome
