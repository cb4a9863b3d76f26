(* In-memory spans around calls into the program's layers.

   A span records its layer name, start and end time, the span that
   caused it, the request it serves and the minor words the calling
   domain allocated meanwhile. Traced passes run in one domain, so
   Gc.minor_words (domain-local) attributes allocation exactly. A
   layer's self time is its duration minus its children's.

   A probe span repeats work that a later call performs internally (the
   symbolic-execution run inside Infer.infer), so that the two can be
   told apart; probes are reported but left out of every sum. *)

type t = {
  mutable n : int;
  mutable name : int array;
  mutable parent : int array;
  mutable rid : int array;
  mutable t0 : float array;
  mutable t1 : float array;
  mutable w0 : float array;
  mutable w1 : float array;
  mutable current : int;
  mutable request : int;
  names : (string, int) Hashtbl.t;
  mutable labels : string array;
  probes : (int, unit) Hashtbl.t;
}

let create () =
  let cap = 1024 in
  {
    n = 0;
    name = Array.make cap 0;
    parent = Array.make cap 0;
    rid = Array.make cap 0;
    t0 = Array.make cap 0.0;
    t1 = Array.make cap 0.0;
    w0 = Array.make cap 0.0;
    w1 = Array.make cap 0.0;
    current = -1;
    request = -1;
    names = Hashtbl.create 32;
    labels = [||];
    probes = Hashtbl.create 4;
  }

let intern t label =
  match Hashtbl.find_opt t.names label with
  | Some id -> id
  | None ->
    let id = Array.length t.labels in
    Hashtbl.replace t.names label id;
    t.labels <- Array.append t.labels [| label |];
    id

let mark_probe t label = Hashtbl.replace t.probes (intern t label) ()
let set_request t rid = t.request <- rid

let grow t =
  let cap = 2 * Array.length t.name in
  let ints a = Array.append a (Array.make (cap - Array.length a) 0) in
  let floats a = Array.append a (Array.make (cap - Array.length a) 0.0) in
  t.name <- ints t.name;
  t.parent <- ints t.parent;
  t.rid <- ints t.rid;
  t.t0 <- floats t.t0;
  t.t1 <- floats t.t1;
  t.w0 <- floats t.w0;
  t.w1 <- floats t.w1

(* [with_ t id f] runs [f] inside a span of the interned layer [id]. *)
let with_ t id f =
  if t.n = Array.length t.name then grow t;
  let i = t.n in
  t.n <- i + 1;
  t.name.(i) <- id;
  t.parent.(i) <- t.current;
  t.rid.(i) <- t.request;
  t.current <- i;
  t.w0.(i) <- Gc.minor_words ();
  t.t0.(i) <- Unix.gettimeofday ();
  let close () =
    t.t1.(i) <- Unix.gettimeofday ();
    t.w1.(i) <- Gc.minor_words ();
    t.current <- t.parent.(i)
  in
  match f () with
  | v ->
    close ();
    v
  | exception e ->
    close ();
    raise e

let is_probe t i = Hashtbl.mem t.probes t.name.(i)

(* Self time and self words of every span. *)
let selves t =
  let st = Array.init t.n (fun i -> t.t1.(i) -. t.t0.(i)) in
  let sw = Array.init t.n (fun i -> t.w1.(i) -. t.w0.(i)) in
  for i = 0 to t.n - 1 do
    let p = t.parent.(i) in
    if p >= 0 then begin
      st.(p) <- st.(p) -. (t.t1.(i) -. t.t0.(i));
      sw.(p) <- sw.(p) -. (t.w1.(i) -. t.w0.(i))
    end
  done;
  (st, sw)

type layer = {
  calls : int;
  self_s : float;  (** summed self time *)
  self_words : float;
}

let layers t =
  let st, sw = selves t in
  let acc = Hashtbl.create 32 in
  for i = 0 to t.n - 1 do
    let label = t.labels.(t.name.(i)) in
    let l =
      Option.value (Hashtbl.find_opt acc label)
        ~default:{ calls = 0; self_s = 0.0; self_words = 0.0 }
    in
    Hashtbl.replace acc label
      {
        calls = l.calls + 1;
        self_s = l.self_s +. st.(i);
        self_words = l.self_words +. sw.(i);
      }
  done;
  acc

(* Wall time of the traced pass without its probes: root spans plus
   nothing else, minus the probes they contain. *)
let traced_wall t =
  let total = ref 0.0 in
  for i = 0 to t.n - 1 do
    let d = t.t1.(i) -. t.t0.(i) in
    if t.parent.(i) < 0 then total := !total +. d;
    if is_probe t i then total := !total -. d
  done;
  !total

(* One JSON object per span: name, start and end in microseconds from
   the first span, the parent span's index (-1 for a root), the request
   id (-1 outside requests), self time and self minor words. *)
let write t path =
  let st, sw = selves t in
  let base = if t.n > 0 then t.t0.(0) else 0.0 in
  Out_channel.with_open_text path (fun oc ->
      for i = 0 to t.n - 1 do
        Printf.fprintf oc
          "{\"span\":%d,\"name\":\"%s\",\"start_us\":%.3f,\"end_us\":%.3f,\
           \"parent\":%d,\"request\":%d,\"self_us\":%.3f,\"self_words\":%.0f%s}\n"
          i t.labels.(t.name.(i))
          ((t.t0.(i) -. base) *. 1e6)
          ((t.t1.(i) -. base) *. 1e6)
          t.parent.(i) t.rid.(i) (st.(i) *. 1e6) sw.(i)
          (if is_probe t i then ",\"probe\":true" else "")
      done)
