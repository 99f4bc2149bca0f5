open Repro_util
open Effect
open Effect.Deep

(* A thread is a fiber suspended either in the ready set or on a mutex's
   wait queue.  The scheduler trampoline always resumes a runnable thread
   chosen by the active {!policy}; handlers never [continue] inline, so
   native stack depth stays bounded no matter how many effects a thread
   performs. *)

type thread = {
  cpu : Cpu.t;
  mutable resume : (unit -> unit) option; (* runnable continuation *)
  mutable parked : (unit -> unit) option; (* continuation while blocked on a mutex *)
  mutable finished : bool;
  mutable blocked_since : int;
  mutable prio : int; (* PCT priority; unused by other policies *)
}

type mutex = {
  mid : int;
  name : string option; (* lock-class name for order diagnostics *)
  mutable holder : thread option;
  mutable waiters : thread Queue.t; (* [no_waiters] until first contended *)
  mutable held_outside : bool; (* degraded single-threaded mode *)
}

type _ Effect.t +=
  | Lock : mutex -> unit Effect.t
  | Unlock : mutex -> unit Effect.t
  | Yield : unit Effect.t

(* Mutex ids are process-unique so concurrency diagnostics (the race
   detector's lockset reports) can name locks stably; the counter is
   deliberately never reset. *)
let next_mutex_id = ref 0

(* Shared by every mutex that has never had a waiter, and never added to:
   most locks (one per inode) are never contended, so they need no queue
   of their own. *)
let no_waiters : thread Queue.t = Queue.create ()

let reserve_mutex_id () =
  let mid = !next_mutex_id in
  incr next_mutex_id;
  mid

let create_reserved_mutex mid =
  { mid; name = None; holder = None; waiters = no_waiters; held_outside = false }

let create_mutex ?name () =
  { mid = reserve_mutex_id (); name; holder = None; waiters = no_waiters; held_outside = false }

let mutex_id m = m.mid
let mutex_name m = match m.name with Some n -> n | None -> "m" ^ string_of_int m.mid

(* ------------------------------------------------------------------ *)
(* Lockdep-style acquired-before recorder.  Global (never cleared by
   [reset_run_state]): the relation accumulates across sequential runs
   until [Lock_order.reset], so a whole scenario suite contributes to one
   observed graph.  Recording covers every acquisition path — the
   uncontended effect handler, the FIFO handoff in [Unlock], and the
   degraded outside-scheduler mode (keyed as pseudo-thread -1). *)

module Lock_order = struct
  (* This recorder sits on every lock/unlock — millions of times per aged
     image — so the structures are flat (DESIGN §14): per-thread held
     stacks are plain int arrays (slot = thread id + 1, covering the
     outside pseudo-thread -1), the edge relation is a {!Flat_table} set
     keyed [(held lsl mid_bits) lor acquired], and mutex names live in a
     mid-indexed array written once rather than Hashtbl.replace'd on
     every acquisition. *)

  (* Two mid fields must pack into one non-negative 63-bit int key:
     31+31 bits exactly fits, and 2^31 mutexes outlasts any campaign
     (the id counter is never reset — a full fig6 run mints ~10M). *)
  let mid_bits = 31
  let mid_mask = (1 lsl mid_bits) - 1

  let stacks = ref (Array.make 8 [||])
  let depths = ref (Array.make 8 0)
  let names = ref (Array.make 64 "")
  let edge_tbl : unit Flat_table.t = Flat_table.create ~dummy:() ()
  let acq_count = ref 0

  let reset () =
    stacks := Array.make 8 [||];
    depths := Array.make 8 0;
    names := Array.make 64 "";
    Flat_table.clear edge_tbl;
    acq_count := 0

  let ensure_thread slot =
    if slot >= Array.length !depths then begin
      let cap = max 8 (2 * (slot + 1)) in
      let s = Array.make cap [||] and d = Array.make cap 0 in
      Array.blit !stacks 0 s 0 (Array.length !stacks);
      Array.blit !depths 0 d 0 (Array.length !depths);
      stacks := s;
      depths := d
    end

  let register_name mid n =
    if mid >= Array.length !names then begin
      let bigger = Array.make (max 64 (2 * (mid + 1))) "" in
      Array.blit !names 0 bigger 0 (Array.length !names);
      names := bigger
    end;
    if String.length !names.(mid) = 0 then !names.(mid) <- n

  let record_acquire ~thread m =
    incr acq_count;
    if m.mid > mid_mask then invalid_arg "Sched.Lock_order: mutex id overflow";
    (match m.name with Some n -> register_name m.mid n | None -> ());
    let slot = thread + 1 in
    ensure_thread slot;
    let dep = !depths.(slot) in
    let arr =
      let a = !stacks.(slot) in
      if dep < Array.length a then a
      else begin
        let bigger = Array.make (max 8 (2 * Array.length a)) 0 in
        Array.blit a 0 bigger 0 dep;
        !stacks.(slot) <- bigger;
        bigger
      end
    in
    let fresh = ref 0 in
    for i = 0 to dep - 1 do
      let key = (arr.(i) lsl mid_bits) lor m.mid in
      if not (Flat_table.mem edge_tbl key) then begin
        Flat_table.set edge_tbl key ();
        incr fresh
      end
    done;
    arr.(dep) <- m.mid;
    !depths.(slot) <- dep + 1;
    Repro_stats.Stats.count "sched.lock_order.acquisitions" 1;
    if !fresh > 0 then Repro_stats.Stats.count "sched.lock_order.edges" !fresh

  (* Drop the innermost occurrence (top-down scan); unknown mids are a
     no-op, matching the old list-drop semantics. *)
  let record_release ~thread m =
    let slot = thread + 1 in
    if slot < Array.length !depths then begin
      let arr = !stacks.(slot) and dep = !depths.(slot) in
      let i = ref (dep - 1) in
      while !i >= 0 && arr.(!i) <> m.mid do decr i done;
      if !i >= 0 then begin
        for j = !i to dep - 2 do
          arr.(j) <- arr.(j + 1)
        done;
        !depths.(slot) <- dep - 1
      end
    end

  let clear_stack slot = if slot < Array.length !depths then !depths.(slot) <- 0
  let thread_slots () = Array.length !depths

  let label mid =
    let n = !names in
    if mid < Array.length n && String.length n.(mid) > 0 then n.(mid)
    else "m" ^ string_of_int mid

  let name_of mid =
    let n = !names in
    if mid < Array.length n && String.length n.(mid) > 0 then Some n.(mid) else None

  let acquisitions () = !acq_count

  let edges () =
    (* Keys sort lexicographically as (held, acquired) pairs: held is the
       high bits. *)
    Flat_table.keys_sorted edge_tbl
    |> List.map (fun k -> (k lsr mid_bits, k land mid_mask))

  let named_edges () =
    Flat_table.fold edge_tbl ~init:[] ~f:(fun acc k () ->
        match (name_of (k lsr mid_bits), name_of (k land mid_mask)) with
        | Some na, Some nb -> (na, nb) :: acc
        | _ -> acc)
    |> List.sort_uniq compare

  (* Smallest observed acquired-before cycle, as lock labels; [None] when
     the relation is acyclic.  Total: never raises. *)
  let cycle () =
    let all = edges () in
    let succs v =
      List.filter_map (fun (a, b) -> if a = v then Some b else None) all
      |> List.sort compare
    in
    let nodes =
      List.concat_map (fun (a, b) -> [ a; b ]) all |> List.sort_uniq compare
    in
    (* DFS with colors; a back edge closes a cycle. *)
    let color = Hashtbl.create 16 in
    let found = ref None in
    let rec visit path v =
      match Hashtbl.find_opt color v with
      | Some `Done -> ()
      | Some `Active ->
          (* [path] is [v :: ancestors], innermost first; the cycle is v
             plus the ancestors back to v's earlier occurrence. *)
          if !found = None then begin
            let rec upto = function
              | [] -> []
              | x :: rest -> if x = v then [] else x :: upto rest
            in
            found :=
              Some (List.rev (match path with [] -> [] | h :: rest -> h :: upto rest))
          end
      | None ->
          Hashtbl.replace color v `Active;
          List.iter (fun w -> if !found = None then visit (w :: path) w) (succs v);
          Hashtbl.replace color v `Done
    in
    List.iter (fun v -> if !found = None then visit [ v ] v) nodes;
    Option.map (List.map label) !found
end

let outside_thread = -1

let default_cpu = Cpu.make ~id:0 ()

(* Scheduler state; the simulator is single-OS-threaded so globals are
   safe.  Everything mutable and per-run is reset in {!reset_run_state}
   so sequential [run] calls can never observe each other's leftovers. *)
let active = ref false
let current : thread option ref = ref None
let lock_wait_total = ref 0

let reset_run_state () =
  active := false;
  current := None;
  lock_wait_total := 0;
  (* Drop held-lock stacks of simulated threads (a deadlocked run never
     releases); the outside pseudo-thread's stack (slot 0) survives, as do
     the accumulated acquired-before edges. *)
  for slot = 1 to Lock_order.thread_slots () - 1 do
    Lock_order.clear_stack slot
  done

let uncontended_lock_ns = 18
let handoff_ns = 40

let self () = match !current with Some t -> t.cpu | None -> default_cpu
let running () = !active

(* ------------------------------------------------------------------ *)
(* Instrumentation: one monitor observes thread lifecycle, lock
   transfers and annotated shared-state accesses.  Events fire only
   inside [run] (the degraded outside-scheduler lock mode is single
   threaded, so there is nothing to observe). *)

type monitor = {
  on_spawn : thread:int -> unit;
  on_finish : thread:int -> unit;
  on_acquire : thread:int -> mutex:int -> unit;
  on_release : thread:int -> mutex:int -> unit;
  on_yield : thread:int -> unit;
  on_access : thread:int -> obj:string -> write:bool -> site:string -> unit;
}

let monitor : monitor option ref = ref None

let set_monitor m = monitor := m
let monitored () = !active && Option.is_some !monitor

let mon f = match !monitor with Some m -> f m | None -> ()

let access ~obj ~write ~site =
  if !active then
    match !monitor with
    | None -> ()
    | Some m ->
        let thread = match !current with Some t -> t.cpu.id | None -> default_cpu.id in
        m.on_access ~thread ~obj ~write ~site

(* ------------------------------------------------------------------ *)

let lock m =
  if !active then perform (Lock m)
  else begin
    if m.held_outside then invalid_arg "Sched.lock: deadlock outside scheduler";
    m.held_outside <- true;
    Lock_order.record_acquire ~thread:outside_thread m;
    Simclock.advance default_cpu.clock uncontended_lock_ns
  end

let unlock m =
  if !active then perform (Unlock m)
  else if m.held_outside then begin
    m.held_outside <- false;
    Lock_order.record_release ~thread:outside_thread m
  end
  else invalid_arg "Sched.unlock: not held"

let with_lock m f =
  lock m;
  match f () with
  | v ->
      unlock m;
      v
  | exception e ->
      unlock m;
      raise e

let yield () = if !active then perform Yield

type policy =
  | Earliest_clock
  | Random_walk of { seed : int }
  | Pct of { seed : int }

type stats = { makespan_ns : int; total_busy_ns : int; lock_wait_ns : int }

(* PCT-lite demotion rate: at each scheduling step the chosen thread's
   priority drops below every other with probability 1/16, approximating
   PCT's d random priority-change points without knowing the step count
   in advance. *)
let pct_demote_one_in = 16

let run ?(numa_nodes = 1) ?(policy = Earliest_clock) ~threads:nthreads body =
  if !active then invalid_arg "Sched.run: already running";
  if nthreads <= 0 then invalid_arg "Sched.run: non-positive thread count";
  reset_run_state ();
  let threads =
    Array.init nthreads (fun i ->
        let node = if numa_nodes <= 1 then 0 else i * numa_nodes / nthreads in
        {
          cpu = Cpu.make ~id:i ~node ();
          resume = None;
          parked = None;
          finished = false;
          blocked_since = 0;
          prio = 0;
        })
  in
  active := true;
  let start t =
    t.resume <-
      Some
        (fun () ->
          match_with
            (fun () -> body t.cpu)
            ()
            {
              retc =
                (fun () ->
                  t.finished <- true;
                  mon (fun m -> m.on_finish ~thread:t.cpu.id));
              exnc = (fun e -> raise e);
              effc =
                (fun (type a) (eff : a Effect.t) ->
                  match eff with
                  | Lock m ->
                      Some
                        (fun (k : (a, unit) continuation) ->
                          Simclock.advance t.cpu.clock uncontended_lock_ns;
                          if m.holder = None && Queue.is_empty m.waiters then begin
                            m.holder <- Some t;
                            Lock_order.record_acquire ~thread:t.cpu.id m;
                            mon (fun mo -> mo.on_acquire ~thread:t.cpu.id ~mutex:m.mid);
                            t.resume <- Some (fun () -> continue k ())
                          end
                          else begin
                            t.blocked_since <- Simclock.now t.cpu.clock;
                            t.parked <- Some (fun () -> continue k ());
                            if m.waiters == no_waiters then m.waiters <- Queue.create ();
                            Queue.add t m.waiters
                          end)
                  | Unlock m ->
                      Some
                        (fun (k : (a, unit) continuation) ->
                          (match m.holder with
                          | Some h when h == t -> ()
                          | _ -> invalid_arg "Sched.unlock: not held by caller");
                          m.holder <- None;
                          Lock_order.record_release ~thread:t.cpu.id m;
                          mon (fun mo -> mo.on_release ~thread:t.cpu.id ~mutex:m.mid);
                          (match Queue.take_opt m.waiters with
                          | Some w ->
                              m.holder <- Some w;
                              (* FIFO handoff: the longest-blocked waiter
                                 acquires at release time plus a fixed
                                 transfer cost. *)
                              Lock_order.record_acquire ~thread:w.cpu.id m;
                              mon (fun mo -> mo.on_acquire ~thread:w.cpu.id ~mutex:m.mid);
                              let wake = Simclock.now t.cpu.clock + handoff_ns in
                              let waited = max 0 (wake - w.blocked_since) in
                              lock_wait_total := !lock_wait_total + waited;
                              Simclock.advance_to w.cpu.clock wake;
                              w.resume <- w.parked;
                              w.parked <- None
                          | None -> ());
                          t.resume <- Some (fun () -> continue k ()))
                  | Yield ->
                      Some
                        (fun (k : (a, unit) continuation) ->
                          mon (fun mo -> mo.on_yield ~thread:t.cpu.id);
                          t.resume <- Some (fun () -> continue k ()))
                  | _ -> None);
            })
  in
  Array.iter start threads;
  Array.iter (fun t -> mon (fun m -> m.on_spawn ~thread:t.cpu.id)) threads;
  (* Trampoline: run the runnable thread chosen by the policy.
     [Earliest_clock] (the default) picks the smallest simulated clock,
     which makes contention effects fall out naturally and every run
     reproducible.  The exploration policies deliberately break that
     tiebreak to surface schedule-dependent bugs; both are fully
     deterministic functions of their seed. *)
  let rng =
    match policy with
    | Earliest_clock -> Rng.create 0 (* unused *)
    | Random_walk { seed } | Pct { seed } -> Rng.create seed
  in
  (match policy with
  | Pct _ ->
      let prios = Array.init nthreads (fun i -> i) in
      Rng.shuffle rng prios;
      Array.iteri (fun i p -> threads.(i).prio <- p) prios
  | _ -> ());
  let pct_low = ref (-1) in
  let runnable t = t.resume <> None && not t.finished in
  let pick () =
    match policy with
    | Earliest_clock ->
        let next = ref None in
        Array.iter
          (fun t ->
            if runnable t then
              match !next with
              | Some b when Simclock.now b.cpu.clock <= Simclock.now t.cpu.clock -> ()
              | _ -> next := Some t)
          threads;
        !next
    | Random_walk _ ->
        let ready = Array.of_seq (Seq.filter runnable (Array.to_seq threads)) in
        if Array.length ready = 0 then None else Some ready.(Rng.int rng (Array.length ready))
    | Pct _ ->
        let next = ref None in
        Array.iter
          (fun t ->
            if runnable t then
              match !next with
              | Some b when b.prio >= t.prio -> ()
              | _ -> next := Some t)
          threads;
        (match !next with
        | Some t when Rng.int rng pct_demote_one_in = 0 ->
            (* Priority-change point: drop the running thread below
               everyone so another thread preempts at the next step. *)
            t.prio <- !pct_low;
            decr pct_low
        | _ -> ());
        !next
  in
  let rec loop () =
    match pick () with
    | None -> ()
    | Some t ->
        let k = Option.get t.resume in
        t.resume <- None;
        current := Some t;
        k ();
        current := None;
        loop ()
  in
  (try loop ()
   with e ->
     reset_run_state ();
     raise e);
  let stuck = Array.to_list threads |> List.filter (fun t -> not t.finished) in
  if stuck <> [] then begin
    (* Name the stuck threads: which are parked on a mutex, and for how
       long they have been blocked relative to the latest clock. *)
    let now = Array.fold_left (fun acc t -> max acc (Simclock.now t.cpu.clock)) 0 threads in
    let describe t =
      if t.parked <> None then
        Printf.sprintf "thread %d (blocked on mutex since %dns, stuck for %dns)" t.cpu.id
          t.blocked_since
          (max 0 (now - t.blocked_since))
      else Printf.sprintf "thread %d (not runnable)" t.cpu.id
    in
    reset_run_state ();
    invalid_arg
      (Printf.sprintf "Sched.run: deadlock — %d of %d threads never finished: %s"
         (List.length stuck) nthreads
         (String.concat ", " (List.map describe stuck)))
  end;
  let makespan = Array.fold_left (fun acc t -> max acc (Simclock.now t.cpu.clock)) 0 threads in
  let busy = Array.fold_left (fun acc t -> acc + Simclock.now t.cpu.clock) 0 threads in
  let stats = { makespan_ns = makespan; total_busy_ns = busy; lock_wait_ns = !lock_wait_total } in
  reset_run_state ();
  stats
