type request = {
  ising : Sparse_ising.t;
  params : Sampler.params;
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
  if req.params.Sampler.reads <= 1 then Timing.single_sample_us timing
  else Timing.multi_sample_us timing ~samples:req.params.Sampler.reads

(* the one simulator: spins are a pure function of the caller's RNG state,
   whatever [req.domains] says (reads are stream-split) *)
let best_of : t =
  (module struct
    let name = "best-of"
    let capabilities = { fallible = false }

    let sample ?obs rng req =
      let spins =
        Sampler.sample ?obs ~params:req.params ?init:req.init
          ~domains:(max 1 req.domains) rng req.ising
      in
      Ok { spins; energy = Sparse_ising.energy req.ising spins; time_us = model_time_us req }
  end)

(* ------------------------------------------------------------------ *)
(* fault injection *)

type fault_profile = {
  fail_rate : float;
  latency_us : float;
  fault_seed : int;
  mix : (failure * float) list;
}

let default_mix =
  [ (Timeout, 1.0); (Unavailable, 1.0); (Readout_corrupt, 1.0); (Chain_break_storm, 1.0) ]

let default_faults = { fail_rate = 0.0; latency_us = 0.0; fault_seed = 7; mix = default_mix }

let pick_weighted rng mix =
  let total = List.fold_left (fun acc (_, w) -> acc +. Float.max 0. w) 0. mix in
  if total <= 0. then Unavailable
  else begin
    let u = Stats.Rng.float rng total in
    let rec go acc = function
      | [] -> Unavailable
      | (f, w) :: rest ->
          let acc = acc +. Float.max 0. w in
          if u < acc then f else go acc rest
    in
    go 0. mix
  end

let with_faults profile (module Inner : S) : t =
  (module struct
    let name = Inner.name ^ "+faults"
    let capabilities = { fallible = true }

    (* the fault stream is private to the wrapper: deciding whether a call
       fails (and which latency it gets) never touches the caller's RNG, so
       a zero-rate injector is bit-identical to the inner backend, and a
       failed call leaves the caller's stream exactly where it was — the
       retry reproduces what the original call would have returned *)
    let frng = Stats.Rng.create ~seed:profile.fault_seed

    (* concurrent callers (a shared supervisor does not serialise device
       calls, and the wrapper also runs unsupervised) take turns on
       [frng]; the inner call runs outside the lock *)
    let fmutex = Mutex.create ()

    let sample ?obs rng req =
      let injected =
        Mutex.protect fmutex (fun () ->
            if profile.fail_rate > 0. && Stats.Rng.float frng 1.0 < profile.fail_rate then
              Some (pick_weighted frng profile.mix)
            else None)
      in
      match injected with
      | Some f -> Error f
      | None -> (
          match Inner.sample ?obs rng req with
          | Error _ as e -> e
          | Ok resp ->
              if profile.latency_us <= 0. then Ok resp
              else
                (* uniform on [0, 2·mean): mean extra latency = latency_us *)
                let extra =
                  Mutex.protect fmutex (fun () -> Stats.Rng.float frng (2. *. profile.latency_us))
                in
                Ok { resp with time_us = resp.time_us +. extra })
  end)

let simulator faults =
  if faults.fail_rate > 0. || faults.latency_us > 0. then with_faults faults best_of else best_of
