type heuristic = Vsids | Chb

type restart_policy =
  | Luby_restarts of int
  | Ema_restarts of { fast : float; slow : float; margin : float }

type t = {
  heuristic : heuristic;
  restart : restart_policy;
  random_polarity_freq : float;
  log_proof : bool;
  track_paper_stats : bool;
  garbage_frac : float;
  seed : int;
}

let minisat_like =
  {
    heuristic = Vsids;
    restart = Luby_restarts 100;
    random_polarity_freq = 0.02;
    log_proof = false;
    track_paper_stats = false;
    garbage_frac = 0.20;
    seed = 91648253;
  }

let kissat_like =
  {
    heuristic = Chb;
    restart = Ema_restarts { fast = 1. /. 32.; slow = 1. /. 4096.; margin = 1.25 };
    random_polarity_freq = 0.0;
    log_proof = false;
    track_paper_stats = false;
    garbage_frac = 0.20;
    seed = 91648253;
  }

let default = minisat_like
let with_seed seed t = { t with seed }

let with_proof_logging t = { t with log_proof = true }
let with_paper_stats t = { t with track_paper_stats = true }
