(* Allocation counted over every domain, read back from the runtime's own
   event rings.  OCaml 5 keeps [Gc.minor_words] per domain, so a
   measurement taken with it on the calling domain misses whatever the
   pool's worker domains allocate; the runtime-events counters are
   emitted by each domain at each minor collection and cover them all.

   Events flow only between the [Runtime_events.resume] and [pause] of a
   measurement, which the benchmark makes around traced operations alone:
   untraced operations pay nothing.  The rings are small (the runtime
   default), so a polling thread drains them while the measured work
   runs. *)

type counts = {
  minor_words : float;      (* words allocated on minor heaps, all domains *)
  major_cycles : int;       (* major GC cycles completed *)
  lost_events : int;        (* ring entries overwritten before being read *)
}

let zero = { minor_words = 0.0; major_cycles = 0; lost_events = 0 }

let add a b =
  {
    minor_words = a.minor_words +. b.minor_words;
    major_cycles = a.major_cycles + b.major_cycles;
    lost_events = a.lost_events + b.lost_events;
  }

type state = {
  mutable minor : int;  (* bytes: the unit of [EV_C_MINOR_ALLOCATED] *)
  mutable majors : int;
  mutable lost : int;
}

let cursor = lazy (Runtime_events.start (); Runtime_events.create_cursor None)

let callbacks st =
  Runtime_events.Callbacks.create
    ~runtime_counter:(fun _ring _ts c v ->
      match c with
      | Runtime_events.EV_C_MINOR_ALLOCATED ->
        st.minor <- st.minor + v
      | _ -> ())
    ~runtime_begin:(fun ring _ts phase ->
      match phase with
      | Runtime_events.EV_MAJOR_GC_CYCLE_DOMAINS when ring = 0 ->
        st.majors <- st.majors + 1
      | _ -> ())
    ~lost_events:(fun _ring n -> st.lost <- st.lost + n)
    ()

let drain cursor cbs = ignore (Runtime_events.read_poll cursor cbs None)

(* [measure f] runs [f] and counts what it allocated on every domain.  A
   minor collection on entry and exit is global in OCaml 5 (every domain
   empties its minor heap), so allocation made before [f] is flushed
   first and the tail [f] leaves in the minor heaps is counted. *)
let measure f =
  let cursor = Lazy.force cursor in
  Runtime_events.resume ();
  let st = { minor = 0; majors = 0; lost = 0 } in
  let cbs = callbacks st in
  Gc.minor ();
  drain cursor (callbacks { minor = 0; majors = 0; lost = 0 });
  let stop = Atomic.make false in
  let poller =
    Thread.create
      (fun () ->
        while not (Atomic.get stop) do
          drain cursor cbs;
          Thread.delay 0.01
        done)
      ()
  in
  let finish () =
    Gc.minor ();
    Atomic.set stop true;
    Thread.join poller;
    drain cursor cbs;
    Runtime_events.pause ()
  in
  let r = Fun.protect ~finally:finish f in
  ( r,
    {
      minor_words = float_of_int st.minor /. float_of_int (Sys.word_size / 8);
      major_cycles = st.majors;
      lost_events = st.lost;
    } )
