(* Persistent fixed-size Domain worker pool.

   Work is scheduled in *batches*: a batch owns its item and result arrays
   plus an unstarted-item cursor, and the pool's global queue holds batches
   that still have items to hand out.  Workers peek the front batch, claim
   the next item, and retire the batch from the queue once its cursor runs
   off the end — so scheduling a k-item batch costs one queue entry, not k.

   [run] is a reusable barrier: the calling domain *helps*, executing items
   of its own batch while it waits.  That keeps the pool deadlock-free
   under nesting (an item that itself calls [run] on the same pool can
   always finish its own sub-batch inline, even with every worker busy) and
   gives the pool [workers t + 1] execution lanes.

   The single-use submit/drain lifecycle this replaced spawned and joined a
   fresh domain set per batch — the root of the parallel best-of regression
   measured in BENCH_anneal.json (PR 4). *)

type ('a, 'b) batch = {
  items : 'a array;
  results : ('b, exn) result array;
  mutable next : int;  (* first unstarted item *)
  mutable left : int;  (* started-or-not items still incomplete *)
  finished : Condition.t;  (* signalled (with the pool mutex) at left = 0 *)
}

type ('a, 'b) t = {
  mutex : Mutex.t;
  nonempty : Condition.t;
  queue : ('a, 'b) batch Queue.t;  (* batches with unstarted items *)
  mutable closed : bool;
  mutable domains : unit Domain.t array;
  f : worker:int -> 'a -> 'b;
}

let workers t = Array.length t.domains

let missing = Error (Failure "Pool: result missing (worker died?)")

let make_batch items =
  let n = Array.length items in
  {
    items;
    results = Array.make n missing;
    next = 0;
    left = n;
    finished = Condition.create ();
  }

(* claim the next unstarted item, skipping exhausted batches (a helping
   producer may have emptied a batch that is not at the front).  Caller
   holds the mutex. *)
let rec claim_locked t =
  match Queue.peek_opt t.queue with
  | None -> None
  | Some b ->
      if b.next >= Array.length b.items then begin
        ignore (Queue.pop t.queue);
        claim_locked t
      end
      else begin
        let i = b.next in
        b.next <- i + 1;
        if b.next >= Array.length b.items then ignore (Queue.pop t.queue);
        Some (b, i)
      end

(* execute one claimed item and publish its result.  Caller must NOT hold
   the mutex. *)
let exec t b i ~worker =
  let r = try Ok (t.f ~worker b.items.(i)) with e -> Error e in
  Mutex.lock t.mutex;
  b.results.(i) <- r;
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

let create ~workers f =
  let workers = max 0 (min 64 workers) in
  let t =
    {
      mutex = Mutex.create ();
      nonempty = Condition.create ();
      queue = Queue.create ();
      closed = false;
      domains = [||];
      f;
    }
  in
  t.domains <- Array.init workers (fun wid -> Domain.spawn (fun () -> worker_loop t wid));
  t

let enqueue_locked t b =
  if Array.length b.items > 0 then begin
    Queue.push b t.queue;
    Condition.broadcast t.nonempty
  end

let run t items =
  let b = make_batch (Array.of_list items) in
  let n = Array.length b.items in
  Mutex.lock t.mutex;
  if t.closed then begin
    Mutex.unlock t.mutex;
    invalid_arg "Pool.run: pool is shut down"
  end;
  enqueue_locked t b;
  (* helping barrier: claim our own batch's unstarted items; once they are
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
  b.results

(* fire-and-forget: nothing keeps the batch once its item has run, so a
   long-lived caller (the daemon submits once per job) retains nothing *)
let submit t x =
  Mutex.lock t.mutex;
  if t.closed then begin
    Mutex.unlock t.mutex;
    invalid_arg "Pool.submit: pool is shut down"
  end;
  let b = make_batch [| x |] in
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
    (* workers finish every claimable item before exiting; joining them is
       the barrier *)
    Array.iter Domain.join t.domains
  end
