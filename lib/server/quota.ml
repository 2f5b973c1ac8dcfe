type t = { limit : int; loads : (string, int) Hashtbl.t }

let create ~limit =
  if limit < 1 then invalid_arg "Quota.create: limit must be >= 1";
  { limit; loads = Hashtbl.create 16 }

let load t client = match Hashtbl.find_opt t.loads client with Some n -> n | None -> 0

let admit t client =
  let n = load t client in
  if n >= t.limit then false
  else begin
    Hashtbl.replace t.loads client (n + 1);
    true
  end

let release t client =
  match load t client with
  | 0 -> invalid_arg (Printf.sprintf "Quota.release: client %S holds no slot" client)
  | 1 -> Hashtbl.remove t.loads client
  | n -> Hashtbl.replace t.loads client (n - 1)
