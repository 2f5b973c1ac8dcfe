type request = {
  ising : Sparse_ising.t;
  noise : Noise.t;
  reads : int;
  init : int array option;
  domains : int;
}

type response = { spins : int array; energy : float; time_us : float }

type failure =
  | Timeout
  | Unavailable
  | Readout_corrupt
  | Chain_break_storm
  | Breaker_open

let failure_label = function
  | Timeout -> "timeout"
  | Unavailable -> "unavailable"
  | Readout_corrupt -> "readout_corrupt"
  | Chain_break_storm -> "chain_break_storm"
  | Breaker_open -> "breaker_open"

type capabilities = { fallible : bool }

module type S = sig
  val name : string
  val capabilities : capabilities
  val sample : ?obs:Obs.Ctx.t -> Stats.Rng.t -> request -> (response, failure) result
end

type t = (module S)

let name (module B : S) = B.name
let capabilities (module B : S) = B.capabilities
let sample ?obs (module B : S) rng req = B.sample ?obs rng req

let of_fn ~name:n ?(capabilities = { fallible = true }) fn : t =
  (module struct
    let name = n
    let capabilities = capabilities
    let sample ?obs rng req = fn ?obs rng req
  end)

(* modelled device wall-clock of one call: every device is timed as a
   D-Wave 2000Q *)
let model_time_us req =
  let timing = Timing.d_wave_2000q in
  if req.reads <= 1 then Timing.single_sample_us timing
  else Timing.multi_sample_us timing ~samples:req.reads

(* the one simulator, on the one schedule: spins are a pure function of
   the caller's RNG state, whatever [req.domains] says (reads are
   stream-split) *)
let best_of : t =
  (module struct
    let name = "best-of"
    let capabilities = { fallible = false }

    let sample ?obs rng req =
      let spins =
        Sampler.sample ?obs ~noise:req.noise ~reads:req.reads ?init:req.init
          ~domains:(max 1 req.domains) ~schedule:Sampler.default_schedule rng req.ising
      in
      Ok { spins; energy = Sparse_ising.energy req.ising spins; time_us = model_time_us req }
  end)

(* ------------------------------------------------------------------ *)
(* fault injection *)

type fault_profile = { fail_rate : float; fault_seed : int }

let default_faults = { fail_rate = 0.0; fault_seed = 7 }

(* the four device failures, equally likely: one [float frng 4.0] draw
   per injected failure indexes this array *)
let device_failures = [| Timeout; Unavailable; Readout_corrupt; Chain_break_storm |]

let with_faults profile (module Inner : S) : t =
  (module struct
    let name = Inner.name ^ "+faults"
    let capabilities = { fallible = true }

    (* the fault stream is private to the wrapper: deciding whether a call
       fails never touches the caller's RNG, so a zero-rate injector is
       bit-identical to the inner backend, and a failed call leaves the
       caller's stream exactly where it was — the retry reproduces what
       the original call would have returned *)
    let frng = Stats.Rng.create ~seed:profile.fault_seed

    (* concurrent callers take turns on [frng]; the inner call runs
       outside the lock *)
    let fmutex = Mutex.create ()

    let sample ?obs rng req =
      let injected =
        Mutex.protect fmutex (fun () ->
            if profile.fail_rate > 0. && Stats.Rng.float frng 1.0 < profile.fail_rate then
              Some device_failures.(int_of_float (Stats.Rng.float frng 4.0))
            else None)
      in
      match injected with Some f -> Error f | None -> Inner.sample ?obs rng req
  end)

let simulator faults = if faults.fail_rate > 0. then with_faults faults best_of else best_of
