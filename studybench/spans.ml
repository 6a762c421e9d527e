(* In-memory span and count recorder for the traced pass.

   Each domain appends to its own buffer (Domain.DLS), so recording
   takes no lock on the hot path; the buffers are only merged when the
   pass ends.  A span remembers the span that was open on the same
   domain when it started (its parent) and the sweep cell it belongs
   to.  When recording is off, [span] is a plain call of [f]. *)

type span = {
  id : int;
  parent : int;  (* 0: a root span *)
  name : string;
  cell : int;  (* -1: outside any cell *)
  domain : int;
  start : float;  (* host seconds, monotonic *)
  stop : float;
}

type buffer = {
  domain : int;
  mutable spans : span list;
  mutable stack : (int * int) list;  (* open (span id, cell) pairs *)
  counts : (string * int, float) Hashtbl.t;  (* (name, cell) -> sum *)
}

let on = Atomic.make false
let next_id = Atomic.make 1
let registry_lock = Mutex.create ()
let registry : buffer list ref = ref []

let buffer_key =
  Domain.DLS.new_key (fun () ->
      let b =
        {
          domain = (Domain.self () :> int);
          spans = [];
          stack = [];
          counts = Hashtbl.create 16;
        }
      in
      Mutex.protect registry_lock (fun () -> registry := b :: !registry);
      b)

let start () =
  Mutex.protect registry_lock (fun () ->
      List.iter
        (fun b ->
          b.spans <- [];
          b.stack <- [];
          Hashtbl.reset b.counts)
        !registry);
  Atomic.set on true

let stop () = Atomic.set on false

(* The innermost open span on the calling domain (0 when none), for
   work handed to another domain: pass it there as [~parent]. *)
let current () =
  if not (Atomic.get on) then 0
  else
    match (Domain.DLS.get buffer_key).stack with (p, _) :: _ -> p | [] -> 0

let span ?parent ?cell name f =
  if not (Atomic.get on) then f ()
  else begin
    let b = Domain.DLS.get buffer_key in
    let id = Atomic.fetch_and_add next_id 1 in
    let open_parent, inherited =
      match b.stack with (p, c) :: _ -> (p, c) | [] -> (0, -1)
    in
    let parent = Option.value parent ~default:open_parent in
    let cell = Option.value cell ~default:inherited in
    b.stack <- (id, cell) :: b.stack;
    let start = Ksurf.Clock.now_s () in
    Fun.protect
      ~finally:(fun () ->
        let stop = Ksurf.Clock.now_s () in
        b.stack <- List.tl b.stack;
        b.spans <-
          { id; parent; name; cell; domain = b.domain; start; stop } :: b.spans)
      f
  end

(* A span whose interval was observed from outside the call it times
   (e.g. between two hooks the callee invokes); parented like [span]. *)
let interval ~name ~start ~stop =
  if Atomic.get on then begin
    let b = Domain.DLS.get buffer_key in
    let id = Atomic.fetch_and_add next_id 1 in
    let parent, cell =
      match b.stack with (p, c) :: _ -> (p, c) | [] -> (0, -1)
    in
    b.spans <- { id; parent; name; cell; domain = b.domain; start; stop } :: b.spans
  end

(* Counts are kept per cell, so that merging sums them in cell order
   whichever domain ran which cell: float totals then repeat exactly. *)
let count name v =
  if Atomic.get on then begin
    let b = Domain.DLS.get buffer_key in
    let cell = match b.stack with (_, c) :: _ -> c | [] -> -1 in
    let old = Option.value (Hashtbl.find_opt b.counts (name, cell)) ~default:0.0 in
    Hashtbl.replace b.counts (name, cell) (old +. v)
  end

(* Merged view of every domain's buffer; call after [stop]. *)
let spans () =
  Mutex.protect registry_lock (fun () ->
      List.concat_map (fun b -> b.spans) !registry)
  |> List.sort (fun a b -> compare a.id b.id)

let counts () =
  let entries =
    Mutex.protect registry_lock (fun () ->
        List.concat_map (fun b -> List.of_seq (Hashtbl.to_seq b.counts)) !registry)
  in
  let merged = Hashtbl.create 32 in
  List.iter
    (fun ((name, _), v) ->
      let old = Option.value (Hashtbl.find_opt merged name) ~default:0.0 in
      Hashtbl.replace merged name (old +. v))
    (List.sort compare entries);
  merged

let duration s = s.stop -. s.start

(* Self time: the span's duration minus the part of its interval that
   its direct children cover.  Children on several domains (the cells
   of a parallel map) overlap, so their intervals are merged first. *)
let self_times all =
  let children = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent <> 0 then
        Hashtbl.replace children s.parent
          (s :: Option.value (Hashtbl.find_opt children s.parent) ~default:[]))
    all;
  let covered s =
    let kids =
      List.sort (fun a b -> compare a.start b.start)
        (Option.value (Hashtbl.find_opt children s.id) ~default:[])
    in
    fst
      (List.fold_left
         (fun (total, reached) c ->
           let lo = Float.max c.start reached in
           let hi = Float.min c.stop s.stop in
           (total +. Float.max 0.0 (hi -. lo), Float.max reached hi))
         (0.0, s.start) kids)
  in
  List.map (fun s -> (s, duration s -. covered s)) all

let total name all =
  List.fold_left
    (fun acc s -> if String.equal s.name name then acc +. duration s else acc)
    0.0 all

let durations name all =
  List.filter_map
    (fun s -> if String.equal s.name name then Some (duration s) else None)
    all
