type t =
  | Disabled
  | Span of {
      ctx : Ctx.t;
      id : int;
      parent : int;
      name : string;
      start_s : float;
      mutable attrs : (string * string) list;
      mutable live : bool;
    }

let none = Disabled
let id = function Disabled -> 0 | Span s -> s.id

let start ctx ?(parent = none) ?(attrs = []) name =
  if Ctx.is_null ctx then none
  else
    Span
      {
        ctx;
        id = Ctx.next_span_id ctx;
        parent = id parent;
        name;
        start_s = Ctx.now ctx;
        (* stored newest-first (add_attr conses); un-reversed at emit *)
        attrs = List.rev attrs;
        live = true;
      }

let stop ?dur_s t =
  match t with
  | Disabled -> ()
  | Span s ->
      if s.live then begin
        s.live <- false;
        let dur_s =
          match dur_s with
          | Some d -> Float.max 0.0 d
          | None -> Float.max 0.0 (Ctx.now s.ctx -. s.start_s)
        in
        Ctx.emit_span s.ctx
          {
            Ctx.id = s.id;
            parent = s.parent;
            name = s.name;
            start_s = s.start_s;
            dur_s;
            attrs = List.rev s.attrs;
          }
      end

let add_attr t k v =
  match t with
  | Disabled -> ()
  | Span s -> if s.live then s.attrs <- (k, v) :: s.attrs

let record ctx ?(parent = none) ?(attrs = []) ~dur_s name =
  if not (Ctx.is_null ctx) then begin
    let dur_s = Float.max 0.0 dur_s in
    let stop_s = Ctx.now ctx in
    Ctx.emit_span ctx
      {
        Ctx.id = Ctx.next_span_id ctx;
        parent = id parent;
        name;
        start_s = Float.max 0.0 (stop_s -. dur_s);
        dur_s;
        attrs;
      }
  end
