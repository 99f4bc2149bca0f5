open Repro_util
module Device = Repro_pmem.Device
module Sched = Repro_sched.Sched
module Stats = Repro_stats.Stats

(* Dynamic race detection over the cooperative scheduler.

   The deterministic simulator executes fibers one at a time, so no
   interleaving ever corrupts state in simulation — which is exactly how
   it can hide races that would be real on hardware where the per-CPU
   threads run concurrently.  The detector therefore checks the
   {e discipline}, not the outcome: two accesses to the same shared
   location from different simulated CPUs, at least one a write, are a
   race unless ordered by the happens-before relation (program order plus
   lock release→acquire edges), and shared mutable state should be
   consistently protected by at least one common lock.

   Two passes run simultaneously over the same access stream:

   - FastTrack-style happens-before: each thread and mutex carries a
     vector clock; a release copies the thread clock into the mutex, an
     acquire joins it back, and each location remembers its last-write
     epoch and per-thread read clocks.  An access that is not ordered
     after the location's conflicting accesses is reported as [Hb].
   - Eraser-style lockset: each location refines the intersection of
     locks held across accesses once it becomes shared; a shared-modified
     location whose candidate set goes empty is reported as [Lockset]
     even when this particular schedule happened to order the accesses.

   Locations come from two streams: PM device events (tagged with the
   accessing CPU by {!Repro_pmem.Device}, keyed by cache-line-sized
   granule) and {!Repro_sched.Sched.access} annotations on shared DRAM
   structures (allocator pools, journal cursors, DRAM indexes). *)

(* ------------------------------------------------------------------ *)
(* Vector clocks, grown on demand (thread ids are small and dense). *)

module Vc = struct
  type t = { mutable a : int array }

  let create () = { a = Array.make 8 0 }

  let ensure t n =
    if n >= Array.length t.a then begin
      let b = Array.make (max (n + 1) (2 * Array.length t.a)) 0 in
      Array.blit t.a 0 b 0 (Array.length t.a);
      t.a <- b
    end

  let get t i = if i < Array.length t.a then t.a.(i) else 0

  let set t i v =
    ensure t i;
    t.a.(i) <- v

  let join dst src = Array.iteri (fun i v -> if v > get dst i then set dst i v) src.a
  let copy src = { a = Array.copy src.a }
end

(* ------------------------------------------------------------------ *)

type kind = Hb | Lockset

type access_info = {
  a_thread : int;
  a_site : string;
  a_locks : int list; (* sorted mutex ids held at the access *)
  a_write : bool;
}

type race = {
  r_kind : kind;
  r_loc : string;
  r_first : access_info;
  r_second : access_info;
  r_seed : int option; (* schedule seed, filled by check/explore *)
}

let pp_locks = function
  | [] -> "{}"
  | locks -> "{" ^ String.concat "," (List.map (fun i -> "m" ^ string_of_int i) locks) ^ "}"

let kind_name = function Hb -> "happens-before" | Lockset -> "lockset"

let race_to_string r =
  let pp a =
    Printf.sprintf "%s %s by thread %d holding %s"
      (if a.a_write then "write" else "read")
      a.a_site a.a_thread (pp_locks a.a_locks)
  in
  Printf.sprintf "%s race on %s: %s vs %s%s" (kind_name r.r_kind) r.r_loc (pp r.r_first)
    (pp r.r_second)
    (match r.r_seed with
    | Some s -> Printf.sprintf " [replay: racecheck --seed %d]" s
    | None -> " [schedule: earliest-clock]")

(* ------------------------------------------------------------------ *)

type loc_key = Pm of int (* granule index *) | Obj of string

type eraser = Virgin | Exclusive of int | Shared | Shared_modified

type loc = {
  mutable w_thread : int; (* last-write epoch; -1 = never written *)
  mutable w_clock : int;
  mutable w_info : access_info option;
  r_vc : Vc.t; (* per-thread read clocks *)
  mutable r_info : (int * access_info) list; (* last read per thread *)
  mutable eraser : eraser;
  mutable lockset : int list; (* meaningful once shared *)
  mutable last : access_info option; (* most recent access, for lockset reports *)
}

type tstate = { vc : Vc.t; mutable locks : int list (* acquisition order, innermost first *) }

type t = {
  dev : Device.t;
  mutable hook : Device.hook_id option;
  granularity : int;
  track_loads : bool;
  threads : (int, tstate) Hashtbl.t;
  mutexes : (int, Vc.t) Hashtbl.t;
  locs : (loc_key, loc) Hashtbl.t;
  seen : (string, unit) Hashtbl.t; (* report dedup *)
  mutable races_rev : race list;
  mutable n_races : int;
  mutable accesses : int;
}

let max_races = 200

let loc_name t = function
  | Obj o -> o
  | Pm g ->
      Printf.sprintf "pm:[%#x,%#x)" (g * t.granularity) ((g + 1) * t.granularity)

let tstate t thread =
  match Hashtbl.find_opt t.threads thread with
  | Some ts -> ts
  | None ->
      let ts = { vc = Vc.create (); locks = [] } in
      Vc.set ts.vc thread 1;
      Hashtbl.replace t.threads thread ts;
      ts

let mutex_vc t m =
  match Hashtbl.find_opt t.mutexes m with
  | Some v -> v
  | None ->
      let v = Vc.create () in
      Hashtbl.replace t.mutexes m v;
      v

let loc t key =
  match Hashtbl.find_opt t.locs key with
  | Some l -> l
  | None ->
      let l =
        {
          w_thread = -1;
          w_clock = 0;
          w_info = None;
          r_vc = Vc.create ();
          r_info = [];
          eraser = Virgin;
          lockset = [];
          last = None;
        }
      in
      Hashtbl.replace t.locs key l;
      l

let report t key ~kind ~first ~second =
  let name = loc_name t key in
  let sig_ =
    Printf.sprintf "%s|%s|%s|%b|%s|%b" (kind_name kind) name first.a_site first.a_write
      second.a_site second.a_write
  in
  if (not (Hashtbl.mem t.seen sig_)) && t.n_races < max_races then begin
    Hashtbl.replace t.seen sig_ ();
    t.n_races <- t.n_races + 1;
    t.races_rev <-
      { r_kind = kind; r_loc = name; r_first = first; r_second = second; r_seed = None }
      :: t.races_rev
  end

let rec inter a b =
  match a with [] -> [] | x :: tl -> if List.mem x b then x :: inter tl b else inter tl b

(* One access through both passes. *)
let on_loc_access t ~thread ~key ~write ~site =
  t.accesses <- t.accesses + 1;
  let ts = tstate t thread in
  let info =
    { a_thread = thread; a_site = site; a_locks = List.sort_uniq compare ts.locks; a_write = write }
  in
  let l = loc t key in
  let my = Vc.get ts.vc thread in
  let write_ordered () = l.w_thread < 0 || l.w_clock <= Vc.get ts.vc l.w_thread in
  (* FastTrack happens-before. *)
  (if write then begin
     (match l.w_info with
     | Some w when w.a_thread <> thread && not (write_ordered ()) ->
         report t key ~kind:Hb ~first:w ~second:info
     | _ -> ());
     List.iter
       (fun (u, ri) ->
         if u <> thread && Vc.get l.r_vc u > Vc.get ts.vc u then
           report t key ~kind:Hb ~first:ri ~second:info)
       l.r_info;
     l.w_thread <- thread;
     l.w_clock <- my;
     l.w_info <- Some info
   end
   else begin
     (match l.w_info with
     | Some w when w.a_thread <> thread && not (write_ordered ()) ->
         report t key ~kind:Hb ~first:w ~second:info
     | _ -> ());
     Vc.set l.r_vc thread my;
     l.r_info <- (thread, info) :: List.remove_assoc thread l.r_info
   end);
  (* Eraser lockset: refinement starts when the location becomes shared
     (tolerating the initialize-then-hand-off pattern), reports once a
     shared-modified location has no consistent lock. *)
  (match l.eraser with
  | Virgin -> l.eraser <- Exclusive thread
  | Exclusive u when u = thread -> ()
  | Exclusive _ ->
      l.lockset <- info.a_locks;
      l.eraser <- (if write then Shared_modified else Shared)
  | Shared ->
      l.lockset <- inter l.lockset info.a_locks;
      if write then l.eraser <- Shared_modified
  | Shared_modified -> l.lockset <- inter l.lockset info.a_locks);
  (match (l.eraser, l.lockset, l.last) with
  | Shared_modified, [], Some prev when prev.a_thread <> thread ->
      report t key ~kind:Lockset ~first:prev ~second:info
  | _ -> ());
  l.last <- Some info

(* PM device events, already tagged with the accessing CPU. *)
let on_device_event t cpu site (ev : Device.event) =
  if Sched.running () then
    match (ev, cpu) with
    | Device.Store { off; len; _ }, Some (c : Cpu.t) when len > 0 ->
        for g = off / t.granularity to (off + len - 1) / t.granularity do
          on_loc_access t ~thread:c.id ~key:(Pm g) ~write:true
            ~site:(Repro_pmem.Site.to_string site)
        done
    | Device.Load { off; len }, Some c when len > 0 && t.track_loads ->
        for g = off / t.granularity to (off + len - 1) / t.granularity do
          on_loc_access t ~thread:c.id ~key:(Pm g) ~write:false
            ~site:(Repro_pmem.Site.to_string site)
        done
    | _ -> ()

let monitor_of t : Sched.monitor =
  {
    on_spawn =
      (fun ~thread ->
        let ts = { vc = Vc.create (); locks = [] } in
        Vc.set ts.vc thread 1;
        Hashtbl.replace t.threads thread ts);
    on_finish = (fun ~thread:_ -> ());
    on_acquire =
      (fun ~thread ~mutex ->
        let ts = tstate t thread in
        ts.locks <- mutex :: ts.locks;
        Vc.join ts.vc (mutex_vc t mutex));
    on_release =
      (fun ~thread ~mutex ->
        let ts = tstate t thread in
        let rec remove_first = function
          | [] -> []
          | x :: tl -> if x = mutex then tl else x :: remove_first tl
        in
        ts.locks <- remove_first ts.locks;
        Hashtbl.replace t.mutexes mutex (Vc.copy ts.vc);
        Vc.set ts.vc thread (Vc.get ts.vc thread + 1));
    on_yield = (fun ~thread:_ -> ());
    on_access =
      (fun ~thread ~obj ~write ~site -> on_loc_access t ~thread ~key:(Obj obj) ~write ~site);
  }

let attach ?(granularity = Units.cacheline) ?(track_loads = true) dev =
  if granularity <= 0 then invalid_arg "Race.attach: non-positive granularity";
  let t =
    {
      dev;
      hook = None;
      granularity;
      track_loads;
      threads = Hashtbl.create 16;
      mutexes = Hashtbl.create 32;
      locs = Hashtbl.create 1024;
      seen = Hashtbl.create 32;
      races_rev = [];
      n_races = 0;
      accesses = 0;
    }
  in
  t.hook <- Some (Device.add_event_hook dev (on_device_event t));
  Sched.set_monitor (Some (monitor_of t));
  t

let detach t =
  (match t.hook with
  | Some id ->
      Device.remove_event_hook t.dev id;
      t.hook <- None
  | None -> ());
  Sched.set_monitor None;
  Stats.count "race.accesses_checked" t.accesses;
  Stats.count "race.races_found" t.n_races

let races t = List.rev t.races_rev
let accesses_checked t = t.accesses
let races_found t = t.n_races

(* ------------------------------------------------------------------ *)
(* Schedule exploration.  A scenario builds fresh state per schedule so
   every run is independent; the schedule is fully determined by its
   seed, so any failure replays exactly. *)

type scenario = {
  sc_name : string;
  sc_threads : int;
  sc_prepare : unit -> Device.t * (Cpu.t -> unit);
}

let policy_of_seed seed : Sched.policy =
  if seed land 1 = 0 then Sched.Random_walk { seed } else Sched.Pct { seed }

let check ?granularity ?track_loads ?seed sc =
  let policy = match seed with None -> Sched.Earliest_clock | Some s -> policy_of_seed s in
  let dev, body = sc.sc_prepare () in
  let det = attach ?granularity ?track_loads dev in
  Fun.protect
    ~finally:(fun () -> detach det)
    (fun () -> ignore (Sched.run ~policy ~threads:sc.sc_threads body));
  List.map (fun r -> { r with r_seed = seed }) (races det)

type outcome = {
  o_name : string;
  o_schedules : int; (* explored schedules, including the earliest-clock baseline *)
  o_races : race list; (* every distinct race, each carrying its seed *)
  o_failing_seeds : int list; (* seeds whose schedule produced at least one race *)
}

let explore ?granularity ?track_loads ?(schedules = 50) ~seed sc =
  let rng = Rng.create seed in
  let seen = Hashtbl.create 32 in
  let all = ref [] in
  let failing = ref [] in
  (* Each schedule runs a fresh detector, so dedupe across schedules here:
     a race keeps the first seed that exposed it. *)
  let add races =
    List.iter
      (fun r ->
        let k =
          Printf.sprintf "%s|%s|%s|%b|%s|%b" (kind_name r.r_kind) r.r_loc r.r_first.a_site
            r.r_first.a_write r.r_second.a_site r.r_second.a_write
        in
        if not (Hashtbl.mem seen k) then begin
          Hashtbl.replace seen k ();
          all := r :: !all
        end)
      races
  in
  add (check ?granularity ?track_loads sc);
  for _ = 1 to schedules do
    let s = Rng.int rng (1 lsl 30) in
    let races = check ?granularity ?track_loads ~seed:s sc in
    if races <> [] then failing := s :: !failing;
    add races
  done;
  Stats.count "race.schedules_explored" (schedules + 1);
  {
    o_name = sc.sc_name;
    o_schedules = schedules + 1;
    o_races = List.rev !all;
    o_failing_seeds = List.rev !failing;
  }
