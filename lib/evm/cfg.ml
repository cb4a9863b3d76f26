type block = {
  start : int;
  instrs : Disasm.instruction list;
  terminator : Opcode.t option;
  succ : successor list;
}

and successor =
  | Fallthrough of int
  | Jump_to of int
  | Branch of { taken : int; fallthrough : int }
  | Exit
  | Unresolved

(* [arr] holds the blocks in ascending start order and [starts] mirrors
   their start offsets, so traversal ([iter_blocks], [block_of_pc]) is
   array-indexed instead of rebuilding lists; [by_start] keeps O(1)
   lookup by exact offset. *)
type t = {
  by_start : (int, block) Hashtbl.t;
  arr : block array;
  starts : int array;
}

(* One pass over the instruction array. Offsets ascend and abut (the
   disassembler's output), so leaders, block ends and the instruction
   after a block are index arithmetic; a byte map of what starts at each
   offset answers the fallthrough and jump-destination checks. *)
let of_instructions instrs =
  let a = Array.of_list instrs in
  let n = Array.length a in
  let limit =
    if n = 0 then 0
    else
      let last = a.(n - 1) in
      last.Disasm.offset + Opcode.size last.Disasm.op
  in
  (* '\001' an instruction starts here, '\002' a JUMPDEST does *)
  let at = Bytes.make limit '\000' in
  Array.iter
    (fun { Disasm.offset; op } ->
      Bytes.set at offset (if op = Opcode.JUMPDEST then '\002' else '\001'))
    a;
  let valid_dest o = o >= 0 && o < limit && Bytes.get at o = '\002' in
  (* the block of instructions [s, e) *)
  let block s e =
    let last = a.(e - 1) in
    let has_next = e < n in
    let after = last.Disasm.offset + Opcode.size last.Disasm.op in
    (* static jump target: the PUSH immediately before the jump *)
    let static_target =
      if e - s < 2 then None
      else
        match a.(e - 2).Disasm.op with
        | Opcode.PUSH (_, v) -> U256.to_int v
        | _ -> None
    in
    let succ =
      match last.Disasm.op with
      | Opcode.JUMP -> (
        match static_target with
        | Some target when valid_dest target -> [ Jump_to target ]
        | Some _ -> [ Exit ] (* jump to invalid destination: halts *)
        | None -> [ Unresolved ])
      | Opcode.JUMPI -> (
        let fallthrough = if has_next then [ Fallthrough after ] else [] in
        match static_target with
        | Some target when valid_dest target ->
          if has_next then [ Branch { taken = target; fallthrough = after } ]
          else [ Jump_to target ]
        | Some _ -> fallthrough
        | None -> Unresolved :: fallthrough)
      | Opcode.STOP | Opcode.RETURN | Opcode.REVERT | Opcode.INVALID
      | Opcode.SELFDESTRUCT ->
        [ Exit ]
      | _ -> if has_next then [ Fallthrough after ] else [ Exit ]
    in
    let terminator =
      if Opcode.is_terminator last.Disasm.op then Some last.Disasm.op
      else None
    in
    let rec instrs i acc = if i < s then acc else instrs (i - 1) (a.(i) :: acc) in
    { start = a.(s).Disasm.offset; instrs = instrs (e - 1) []; terminator; succ }
  in
  (* a block ends before a JUMPDEST and after a terminator *)
  let rec split s i acc =
    if i = n then List.rev (if i > s then block s i :: acc else acc)
    else
      let op = a.(i).Disasm.op in
      if i > s && op = Opcode.JUMPDEST then split i (i + 1) (block s i :: acc)
      else if Opcode.is_terminator op then
        split (i + 1) (i + 1) (block s (i + 1) :: acc)
      else split s (i + 1) acc
  in
  let arr = Array.of_list (split 0 0 []) in
  let by_start = Hashtbl.create 64 in
  Array.iter (fun b -> Hashtbl.replace by_start b.start b) arr;
  { by_start; arr; starts = Array.map (fun b -> b.start) arr }

let build bytecode = of_instructions (Disasm.disassemble bytecode)

let unresolved_count t =
  Array.fold_left
    (fun acc b ->
      acc
      + List.length
          (List.filter (function Unresolved -> true | _ -> false) b.succ))
    0 t.arr

(* Feed externally discovered jump targets (the static pass) back into
   the graph: every [Unresolved] edge whose block gets targets becomes
   concrete [Jump_to] edges. Blocks without news keep their edge, so a
   partially resolved graph stays honest about what it does not know. *)
let resolve t targets_of =
  let by_start = Hashtbl.create (Hashtbl.length t.by_start) in
  let arr =
    Array.map
      (fun b ->
        let succ =
          List.concat_map
            (fun s ->
              match s with
              | Unresolved -> (
                match targets_of b.start with
                | [] -> [ Unresolved ]
                | ts -> List.map (fun x -> Jump_to x) ts)
              | s -> [ s ])
            b.succ
        in
        let b = { b with succ } in
        Hashtbl.replace by_start b.start b;
        b)
      t.arr
  in
  { by_start; arr; starts = t.starts }

let block_at t start = Hashtbl.find_opt t.by_start start
let entry t = if Array.length t.arr = 0 then None else Some t.arr.(0)
let blocks t = Array.to_list t.arr
let iter_blocks f t = Array.iter f t.arr
let block_count t = Array.length t.arr

let successors t block =
  List.concat_map
    (fun s ->
      match s with
      | Fallthrough o | Jump_to o -> Option.to_list (block_at t o)
      | Branch { taken; fallthrough } ->
        Option.to_list (block_at t taken)
        @ Option.to_list (block_at t fallthrough)
      | Exit | Unresolved -> [])
    block.succ

(* Greatest start <= pc, by binary search over the sorted start array. *)
let block_of_pc t pc =
  let n = Array.length t.starts in
  if n = 0 || t.starts.(0) > pc then None
  else begin
    let lo = ref 0 and hi = ref (n - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi + 1) / 2 in
      if t.starts.(mid) <= pc then lo := mid else hi := mid - 1
    done;
    Some t.arr.(!lo)
  end

let branch_condition_pc block =
  match List.rev block.instrs with
  | { Disasm.offset; op = Opcode.JUMPI } :: _ -> Some offset
  | _ -> None

(* Post-dominator computation over the block graph, with a virtual exit
   node (-1). Iterative dataflow on the reverse graph. *)
let postdominators t =
  let exit_node = -1 in
  (* successor starts precomputed once per block; the <=64 fixpoint
     rounds below only walk these arrays *)
  let succ_starts b =
    let concrete = List.map (fun s -> s.start) (successors t b) in
    let exits =
      List.exists (function Exit | Unresolved -> true | _ -> false) b.succ
    in
    if exits || concrete = [] then exit_node :: concrete else concrete
  in
  let succs_of = Array.map succ_starts t.arr in
  let ipdom = Hashtbl.create 64 in
  Hashtbl.replace ipdom exit_node exit_node;
  (* Common ancestor in the (partially built) ipdom tree rooted at the
     virtual exit. Collect the ancestors of one node, then climb from
     the other until the sets meet. Bounded walks guard against the
     transient cycles of an unconverged tree. *)
  let intersect a b =
    let ancestors = Hashtbl.create 16 in
    let rec collect node fuel =
      if fuel > 0 && not (Hashtbl.mem ancestors node) then begin
        Hashtbl.replace ancestors node ();
        if node <> exit_node then
          match Hashtbl.find_opt ipdom node with
          | Some p when p <> node -> collect p (fuel - 1)
          | _ -> ()
      end
    in
    collect a 4096;
    let rec climb node fuel =
      if fuel = 0 then exit_node
      else if Hashtbl.mem ancestors node then node
      else if node = exit_node then exit_node
      else
        match Hashtbl.find_opt ipdom node with
        | Some p when p <> node -> climb p (fuel - 1)
        | _ -> exit_node
    in
    climb b 4096
  in
  let n = Array.length t.arr in
  let changed = ref true in
  let rounds = ref 0 in
  while !changed && !rounds < 64 do
    changed := false;
    incr rounds;
    (* process blocks from the exit backwards; with our forward-ordered
       starts, iterating in descending start order converges quickly *)
    for i = n - 1 downto 0 do
      let s = t.starts.(i) in
      let succs = succs_of.(i) in
      let known =
        List.filter (fun x -> x = exit_node || Hashtbl.mem ipdom x) succs
      in
      match known with
      | [] -> ()
      | first :: rest ->
        let new_ipdom = List.fold_left intersect first rest in
        if Hashtbl.find_opt ipdom s <> Some new_ipdom then begin
          Hashtbl.replace ipdom s new_ipdom;
          changed := true
        end
    done
  done;
  ipdom

let control_deps t =
  let exit_node = -1 in
  let ipdom = postdominators t in
  let deps = Hashtbl.create 64 in
  let add b a =
    let cur = Option.value ~default:[] (Hashtbl.find_opt deps b) in
    if not (List.mem a cur) then Hashtbl.replace deps b (a :: cur)
  in
  iter_blocks
    (fun a ->
      let succs = successors t a in
      let is_branch =
        match a.terminator with
        | Some Opcode.JUMPI -> List.length succs >= 2
        | _ -> false
      in
      if is_branch then
        let stop =
          Option.value ~default:exit_node (Hashtbl.find_opt ipdom a.start)
        in
        List.iter
          (fun s ->
            let rec walk node =
              if node <> stop && node <> exit_node then begin
                add node a.start;
                match Hashtbl.find_opt ipdom node with
                | Some p when p <> node -> walk p
                | _ -> ()
              end
            in
            walk s.start)
          succs)
    t;
  deps

let transitive_deps deps start =
  let seen = Hashtbl.create 16 in
  let out = ref [] in
  let rec go s =
    match Hashtbl.find_opt deps s with
    | None -> ()
    | Some parents ->
      List.iter
        (fun p ->
          if not (Hashtbl.mem seen p) then begin
            Hashtbl.replace seen p ();
            out := p :: !out;
            go p
          end)
        parents
  in
  go start;
  List.rev !out

let pp fmt t =
  iter_blocks
    (fun b ->
      Format.fprintf fmt "block %04x (%d instrs) ->" b.start
        (List.length b.instrs);
      List.iter
        (fun s ->
          match s with
          | Fallthrough o -> Format.fprintf fmt " fall:%04x" o
          | Jump_to o -> Format.fprintf fmt " jump:%04x" o
          | Branch { taken; fallthrough } ->
            Format.fprintf fmt " br:%04x/%04x" taken fallthrough
          | Exit -> Format.fprintf fmt " exit"
          | Unresolved -> Format.fprintf fmt " ?")
        b.succ;
      Format.fprintf fmt "@.")
    t
