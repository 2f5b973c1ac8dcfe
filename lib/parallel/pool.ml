(* Persistent fixed-size Domain worker pool running thunks.

   Work is scheduled in *batches*: a batch owns its thunk array, one
   exception slot per thunk and an unstarted-thunk cursor, and the pool's
   global queue holds batches that still have thunks to hand out.  Workers
   peek the front batch, claim the next thunk, and retire the batch from
   the queue once its cursor runs off the end — so scheduling a k-thunk
   batch costs one queue entry, not k.

   [run] is a reusable barrier: the calling domain *helps*, executing
   thunks of its own batch while it waits.  That keeps the pool
   deadlock-free under nesting (a thunk that itself calls [run] on the
   same pool can always finish its own sub-batch inline, even with every
   worker busy) and gives the pool [workers t + 1] execution lanes.

   The single-use submit/drain lifecycle this replaced spawned and joined a
   fresh domain set per batch — the root of the parallel best-of regression
   measured in BENCH_anneal.json. *)

type thunk = worker:int -> unit

type batch = {
  thunks : thunk array;
  errors : exn option array;  (* what each thunk raised *)
  mutable next : int;  (* first unstarted thunk *)
  mutable left : int;  (* started-or-not thunks still incomplete *)
  finished : Condition.t;  (* signalled (with the pool mutex) at left = 0 *)
}

type t = {
  mutex : Mutex.t;
  nonempty : Condition.t;
  queue : batch Queue.t;  (* batches with unstarted thunks *)
  mutable closed : bool;
  mutable domains : unit Domain.t array;
}

let workers t = Array.length t.domains

let make_batch thunks =
  let n = Array.length thunks in
  { thunks; errors = Array.make n None; next = 0; left = n; finished = Condition.create () }

(* claim the next unstarted thunk, skipping exhausted batches (a helping
   producer may have emptied a batch that is not at the front).  Caller
   holds the mutex. *)
let rec claim_locked t =
  match Queue.peek_opt t.queue with
  | None -> None
  | Some b ->
      if b.next >= Array.length b.thunks then begin
        ignore (Queue.pop t.queue);
        claim_locked t
      end
      else begin
        let i = b.next in
        b.next <- i + 1;
        if b.next >= Array.length b.thunks then ignore (Queue.pop t.queue);
        Some (b, i)
      end

(* execute one claimed thunk and record its completion.  Caller must NOT
   hold the mutex. *)
let exec t b i ~worker =
  let e = try b.thunks.(i) ~worker; None with e -> Some e in
  Mutex.lock t.mutex;
  b.errors.(i) <- e;
  b.left <- b.left - 1;
  if b.left = 0 then Condition.broadcast b.finished;
  Mutex.unlock t.mutex

let rec worker_loop t wid =
  Mutex.lock t.mutex;
  let rec acquire () =
    match claim_locked t with
    | Some w -> Some w
    | None ->
        if t.closed then None
        else begin
          Condition.wait t.nonempty t.mutex;
          acquire ()
        end
  in
  match acquire () with
  | None -> Mutex.unlock t.mutex (* closed and no claimable work: exit *)
  | Some (b, i) ->
      Mutex.unlock t.mutex;
      exec t b i ~worker:wid;
      worker_loop t wid

let create ~workers =
  let workers = max 0 (min 64 workers) in
  let t =
    {
      mutex = Mutex.create ();
      nonempty = Condition.create ();
      queue = Queue.create ();
      closed = false;
      domains = [||];
    }
  in
  t.domains <- Array.init workers (fun wid -> Domain.spawn (fun () -> worker_loop t wid));
  t

let enqueue_locked t b =
  if Array.length b.thunks > 0 then begin
    Queue.push b t.queue;
    Condition.broadcast t.nonempty
  end

let run t thunks =
  let b = make_batch (Array.of_list thunks) in
  let n = Array.length b.thunks in
  Mutex.lock t.mutex;
  if t.closed then begin
    Mutex.unlock t.mutex;
    invalid_arg "Pool.run: pool is shut down"
  end;
  enqueue_locked t b;
  (* helping barrier: claim our own batch's unstarted thunks; once they are
     all handed out, sleep until the in-flight ones (on workers) finish *)
  let helper = Array.length t.domains in
  while b.left > 0 do
    if b.next < n then begin
      let i = b.next in
      b.next <- i + 1;
      Mutex.unlock t.mutex;
      exec t b i ~worker:helper;
      Mutex.lock t.mutex
    end
    else Condition.wait b.finished t.mutex
  done;
  Mutex.unlock t.mutex;
  (* barrier first, then propagate: every thunk has finished (or failed)
     before the first failure is re-raised, so no orphan writes race the
     caller *)
  Array.iter (Option.iter raise) b.errors

(* fire-and-forget: nothing keeps the batch once its thunk has run, so a
   long-lived caller (the daemon submits once per job) retains nothing *)
let submit t thunk =
  Mutex.lock t.mutex;
  if t.closed then begin
    Mutex.unlock t.mutex;
    invalid_arg "Pool.submit: pool is shut down"
  end;
  let b = make_batch [| thunk |] in
  if Array.length t.domains = 0 then begin
    (* no worker would ever claim it *)
    b.next <- 1;
    Mutex.unlock t.mutex;
    exec t b 0 ~worker:0
  end
  else begin
    enqueue_locked t b;
    Mutex.unlock t.mutex
  end

let shutdown t =
  Mutex.lock t.mutex;
  if t.closed then Mutex.unlock t.mutex
  else begin
    t.closed <- true;
    Condition.broadcast t.nonempty;
    Mutex.unlock t.mutex;
    (* workers finish every claimable thunk before exiting; joining them is
       the barrier *)
    Array.iter Domain.join t.domains
  end

(* ------------------------------------------------------------------ *)

let shared_mutex = Mutex.create ()
let shared_pool : t option ref = ref None

(* one lazily-created process-wide instance amortises domain spawn across
   every user in the process, which is what turned the per-QA-call
   spawn/join regression into a flat cost *)
let shared () =
  Mutex.lock shared_mutex;
  let t =
    match !shared_pool with
    | Some t -> t
    | None ->
        (* leave one core for the calling/helping domain; on a 1-core box
           this is a 0-worker pool and [run] degrades to inline execution *)
        let workers = max 0 (Domain.recommended_domain_count () - 1) in
        let t = create ~workers in
        shared_pool := Some t;
        (* join the idle workers on orderly exit so the runtime never waits
           on domains blocked in Condition.wait *)
        at_exit (fun () -> shutdown t);
        t
  in
  Mutex.unlock shared_mutex;
  t
