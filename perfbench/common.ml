(* Measurement helpers shared by the workloads: clocks, order statistics,
   output normalisation, the ground-truth comparison and the set-up
   probe. *)

let now () = Unix.gettimeofday ()

(* Minor words allocated by every domain of the process, the pool's
   workers included (Gc.minor_words counts the calling domain only). *)
let minor_words_all () = (Gc.quick_stat ()).Gc.minor_words

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1048576.0

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

(* Nearest-rank percentile, [p] in (0, 1]. *)
let percentile xs p =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else
    a.(Stdlib.min (n - 1)
         (Stdlib.max 0 (int_of_float (ceil (p *. float_of_int n)) - 1)))

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let minimum xs = List.fold_left Float.min infinity xs
let sum xs = List.fold_left ( +. ) 0.0 xs

(* Ordinary least squares slope of log y against log x. *)
let log_log_slope points =
  let pts = List.map (fun (x, y) -> (log x, log y)) points in
  let n = float_of_int (List.length pts) in
  let sx = List.fold_left (fun a (x, _) -> a +. x) 0.0 pts in
  let sy = List.fold_left (fun a (_, y) -> a +. y) 0.0 pts in
  let sxx = List.fold_left (fun a (x, _) -> a +. (x *. x)) 0.0 pts in
  let sxy = List.fold_left (fun a (x, y) -> a +. (x *. y)) 0.0 pts in
  ((n *. sxy) -. (sx *. sy)) /. ((n *. sxx) -. (sx *. sx))

(* Rendered reports carry each function's wall-clock [elapsed_ns]; it is
   the only field that may differ between two correct runs, so output
   comparisons drop it. *)
let strip_elapsed s =
  let key = ",\"elapsed_ns\":" in
  let kl = String.length key in
  let n = String.length s in
  let b = Buffer.create n in
  let rec go i =
    if i >= n then ()
    else if i + kl <= n && String.sub s i kl = key then begin
      let j = ref (i + kl) in
      while !j < n && s.[!j] >= '0' && s.[!j] <= '9' do
        incr j
      done;
      go !j
    end
    else begin
      Buffer.add_char b s.[i];
      go (i + 1)
    end
  in
  go 0;
  Buffer.contents b

(* Per-function answers against the generator's signatures: a function
   counts as correct when the report holds its selector with exactly
   the declared parameter types. *)
let score_signatures (truth : Abi.Funsig.t list) (r : Sigrec.Engine.report) =
  let recovered =
    List.filter_map
      (function
        | Sigrec.Engine.Recovered { result; _ }
        | Sigrec.Engine.Budget_exhausted { partial = result; _ } ->
          Some (result.Sigrec.Recover.selector, result.Sigrec.Recover.params)
        | Sigrec.Engine.Failed _ -> None)
      r.Sigrec.Engine.outcomes
  in
  List.fold_left
    (fun (answers, correct) (f : Abi.Funsig.t) ->
      let ok =
        match List.assoc_opt (Abi.Funsig.selector f) recovered with
        | Some params ->
          List.length params = List.length f.Abi.Funsig.params
          && List.for_all2 Abi.Abity.equal params f.Abi.Funsig.params
        | None -> false
      in
      (answers + 1, if ok then correct + 1 else correct))
    (0, 0) truth

(* A recovered layout is right when it declares exactly the generator's
   slots with their kinds and packed members, from a converged pass. *)
let layout_right (svars : Solc.Lang.svar list) (l : Sigrec_layout.Layout.t) =
  let module L = Sigrec_layout.Layout in
  let expected (v : Solc.Lang.svar) =
    match v.Solc.Lang.kind with
    | Solc.Lang.Svalue [ 256 ] -> L.Word
    | Solc.Lang.Svalue widths ->
      L.Packed
        (List.map
           (fun (bit_offset, bit_width) -> { L.bit_offset; bit_width })
           (Option.get (Solc.Storage.truth_members widths)))
    | Solc.Lang.Smapping -> L.Mapping
    | Solc.Lang.Sarray -> L.Dyn_array
  in
  let want =
    List.sort
      (fun (a, _) (b, _) -> Evm.U256.compare a b)
      (List.map (fun (v : Solc.Lang.svar) -> (Evm.U256.of_int v.Solc.Lang.slot, expected v)) svars)
  in
  let got = List.map (fun (e : L.entry) -> (e.L.slot, e.L.decl)) l.L.entries in
  l.L.complete
  && List.length want = List.length got
  && List.for_all2
       (fun (s1, d1) (s2, d2) -> Evm.U256.compare s1 s2 = 0 && L.equal_decl d1 d2)
       want got

let exact_verdict (v : Sigrec_classify.Classify.verdict) =
  let module C = Sigrec_classify.Classify in
  match v.C.best with Some b -> b.C.level = C.Exact | None -> false

let report_failed (r : Sigrec.Engine.report) =
  List.exists
    (function Sigrec.Engine.Failed _ -> true | _ -> false)
    r.Sigrec.Engine.outcomes

let hex_line code = "0x" ^ Evm.Hex.encode code

(* ---- set-up time --------------------------------------------------- *)

(* What a user waits for before the first answer: process start, module
   initialisation and the engine the timed part uses. Each sample
   launches this executable in set-up mode and stops the clock when it
   reports ready. *)
let setup_probe_flag = "--setup-probe"

let ready_after_setup make =
  ignore (Sys.opaque_identity (make ()));
  print_endline "ready";
  exit 0

(* One set-up sample, in seconds. The workloads take one between rounds
   of their timed part, outside the timed calls, so that the samples see
   the same machine as the timings. *)
let setup_sample ~workload =
  let rd, wr = Unix.pipe ~cloexec:true () in
  let t0 = now () in
  let pid =
    Unix.create_process Sys.executable_name
      [| Sys.executable_name; setup_probe_flag; workload |]
      Unix.stdin wr Unix.stderr
  in
  Unix.close wr;
  let ic = Unix.in_channel_of_descr rd in
  let line = try input_line ic with End_of_file -> "" in
  let t1 = now () in
  close_in ic;
  let _, status = Unix.waitpid [] pid in
  if line <> "ready" || status <> Unix.WEXITED 0 then
    failwith "set-up probe did not report ready";
  t1 -. t0

(* ---- machine speed -------------------------------------------------- *)

(* The timings are taken on machines shared with other tenants, whose
   load slows every process by up to a third for minutes at a time; a
   fastest repeat within one run cannot undo that. So every run also
   times this fixed piece of work, which allocates and hashes much as the
   analyses do and shares no code with the program, after every timed
   call of the workload, and every timing metric is scaled by
   [kernel_ref_s] over the kernel's fastest time in the run. The timing
   metrics thus read as on a machine where [kernel] takes
   [kernel_ref_s]: a change to the program moves them, a change in the
   machine's load mostly does not. bench.ml prints the unscaled figures
   too. *)
let kernel () =
  let acc = ref 0 in
  for r = 1 to 20 do
    let l = List.init 1000 (fun i -> (i * r, Array.make (1 + (i land 7)) i)) in
    let h = Hashtbl.create 64 in
    List.iter (fun (x, a) -> Hashtbl.replace h (x land 1023) a) l;
    acc := !acc + List.fold_left (fun a (x, arr) -> a + x + Array.length arr) 0 l + Hashtbl.length h
  done;
  !acc

(* [kernel]'s fastest time on an unloaded two-vCPU virtual machine, the
   one the bounds in BENCHMARK.json were set on. *)
let kernel_ref_s = 0.002

let kernel_seconds () =
  let t0 = now () in
  ignore (Sys.opaque_identity (kernel ()));
  now () -. t0

(* ---- what a workload reports ---------------------------------------- *)

(* A figure outside the tracked metrics, with its unit; bench.ml prints
   the ones named for a single workload on every workload, as "skipped"
   where that workload has none. *)
type note = string * (float * string)

(* Untraced run. A run repeats the same work in rounds, and each timing
   is the fastest repeat: load from elsewhere on a shared machine can
   make a round slower, never faster, and it comes in bursts of seconds
   that would move a median of rounds by as much as half. Allocation is
   not disturbed that way and is a median. Latency is per unit of work
   as the workload's user sees it: a batch call (cold_batch) or a
   recover call (wide_dispatch). *)
type e2e = {
  throughput_cps : float;
  latency_p50_ms : float;
  latency_tail_ms : float;
  tail : string;  (** which percentile latency_tail_ms is *)
  samples : int;  (** latency samples behind the percentiles *)
  words_per_contract : float;  (** minor words, every domain *)
  heap_mb : float;  (** peak major heap at the end of the timed part *)
  answers : int;  (** answers scored against ground truth *)
  right : int;  (** ... of which equal to it *)
  attempted : int;
  failed : int;
  checks : (string * bool) list;
  notes : note list;
}

(* Traced run, on one domain, plus the untraced passes it is compared
   with. *)
type traced = {
  spans : Span.t;
  summary : Layers.summary;
  probe_summary : Layers.summary option;
      (** layout and classify.run measured off the workload's path, on
          its distinct contracts, where the workload itself runs neither *)
  hashed_bytes : int;
  sequential_s : float;  (** untraced, jobs = 1, same inputs *)
  parallel_s : float;  (** untraced, jobs = hardware domains *)
  jobs : int;
  warm_us : float;  (** per contract answered from a warm cache *)
  analyses_per_input : float;
  hit_ratio : float;
  evictions : int;
  t_attempted : int;
  t_failed : int;
  t_checks : (string * bool) list;
}

(* Share of report lookups the engines answered from their caches. *)
let hit_ratio engines =
  let sum f = Array.fold_left (fun a e -> a + f (Sigrec.Engine.stats e)) 0 engines in
  let hits = sum Sigrec.Stats.cache_hits and misses = sum Sigrec.Stats.cache_misses in
  float_of_int hits /. float_of_int (Stdlib.max 1 (hits + misses))

let evictions engine =
  List.fold_left (fun a (_, _, _, ev) -> a + ev) 0 (Sigrec.Engine.cache_stats engine)

let config ?(jobs = 0) ?(capacity = 0) () =
  Sigrec.Engine.Config.(default |> with_jobs jobs |> with_cache_capacity capacity)
