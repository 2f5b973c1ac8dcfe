(* Counters are conceptually integers most of the time: an exact integer
   prints without a fractional part (and travels in JSON as [Int]),
   anything else with enough digits to round-trip. *)
let json_num x =
  if Float.is_integer x && Float.abs x < 1e15 then Json.Int (int_of_float x) else Json.Num x

let num x = match json_num x with Int i -> string_of_int i | _ -> Printf.sprintf "%.9g" x

(* span times keep the clock's microsecond resolution, as the trace
   always has *)
let json_us x = Json.Num (Float.round (x *. 1e6) /. 1e6)

let line fields = Json.to_string (Obj fields) ^ "\n"

let span_line (r : Ctx.span_record) =
  line
    ([
       ("type", Json.Str "span");
       ("id", Int r.id);
       ("parent", Int r.parent);
       ("name", Str r.name);
       ("start_s", json_us r.start_s);
       ("dur_s", json_us r.dur_s);
     ]
    @
    if r.attrs = [] then []
    else [ ("attrs", Obj (List.map (fun (k, v) -> (k, Json.Str v)) r.attrs)) ])

let metric_line (name, m) =
  let typed kind fields = line (("type", Json.Str kind) :: ("name", Str name) :: fields) in
  match (m : Ctx.metric) with
  | Ctx.Counter c -> typed "counter" [ ("value", json_num c.count) ]
  | Ctx.Gauge g -> typed "gauge" [ ("value", json_num g.value) ]
  | Ctx.Histogram h ->
      let bucket i n =
        let le = if i < Array.length h.bounds then json_num h.bounds.(i) else Str "+Inf" in
        Json.Obj [ ("le", le); ("n", Int n) ]
      in
      let buckets =
        Array.to_list h.counts
        |> List.mapi (fun i n -> if n > 0 then Some (bucket i n) else None)
        |> List.filter_map Fun.id
      in
      typed "histogram"
        [ ("count", Int h.observations); ("sum", json_num h.sum); ("buckets", Arr buckets) ]

let jsonl ~write =
  {
    Ctx.on_span = (fun r -> write (span_line r));
    on_metrics = (fun ms -> List.iter (fun m -> write (metric_line m)) ms);
    on_close = ignore;
  }

let file_jsonl path =
  let oc = open_out path in
  { (jsonl ~write:(output_string oc)) with on_close = (fun () -> close_out oc) }

(* -- console tree ------------------------------------------------------ *)

type node = {
  mutable n_count : int;
  mutable n_total : float;
  children : (string, node) Hashtbl.t;
}

let fresh_node () = { n_count = 0; n_total = 0.0; children = Hashtbl.create 4 }

let console_tree ppf =
  let spans : Ctx.span_record list ref = ref [] in
  let render ms =
    let records = List.rev !spans in
    let byid = Hashtbl.create 64 in
    List.iter (fun (r : Ctx.span_record) -> Hashtbl.replace byid r.id r) records;
    let root = fresh_node () in
    let memo : (int, node) Hashtbl.t = Hashtbl.create 64 in
    (* map a span id to its aggregation node, following the parent chain;
       a parent that never stopped aggregates its children at the root *)
    let rec node_of id =
      if id = 0 then root
      else
        match Hashtbl.find_opt memo id with
        | Some n -> n
        | None ->
            let n =
              match Hashtbl.find_opt byid id with
              | None -> root
              | Some r ->
                  let parent = node_of r.parent in
                  (match Hashtbl.find_opt parent.children r.name with
                  | Some n -> n
                  | None ->
                      let n = fresh_node () in
                      Hashtbl.replace parent.children r.name n;
                      n)
            in
            Hashtbl.replace memo id n;
            n
    in
    List.iter
      (fun (r : Ctx.span_record) ->
        let n = node_of r.id in
        n.n_count <- n.n_count + 1;
        n.n_total <- n.n_total +. r.dur_s)
      records;
    let sorted_children node =
      Hashtbl.fold (fun name n acc -> (name, n) :: acc) node.children []
      |> List.sort (fun (na, a) (nb, b) ->
             match compare b.n_total a.n_total with
             | 0 -> compare na nb
             | c -> c)
    in
    Format.fprintf ppf "trace summary@.";
    let rec print prefix node =
      let kids = sorted_children node in
      let last = List.length kids - 1 in
      List.iteri
        (fun i (name, n) ->
          let branch, cont = if i = last then ("└─ ", "   ") else ("├─ ", "│  ") in
          Format.fprintf ppf "%s%s%s ×%d — %.3f s@." prefix branch name
            n.n_count n.n_total;
          print (prefix ^ cont) n)
        kids
    in
    print "" root;
    if ms <> [] then begin
      Format.fprintf ppf "metrics@.";
      List.iter
        (fun (name, m) ->
          match (m : Ctx.metric) with
          | Ctx.Counter c -> Format.fprintf ppf "  %s = %s@." name (num c.count)
          | Ctx.Gauge g -> Format.fprintf ppf "  %s = %s@." name (num g.value)
          | Ctx.Histogram h ->
              let mean =
                if h.observations = 0 then 0.0
                else h.sum /. float_of_int h.observations
              in
              Format.fprintf ppf "  %s: n=%d sum=%s mean=%.6g@." name
                h.observations (num h.sum) mean)
        ms
    end
  in
  {
    Ctx.on_span = (fun r -> spans := r :: !spans);
    on_metrics = render;
    on_close = (fun () -> Format.pp_print_flush ppf ());
  }

(* -- prometheus text format -------------------------------------------- *)

(* Metric names may carry labels inline ("name{k=\"v\"}"); split them so
   the TYPE line uses the base name and histogram buckets can merge an
   [le] label in. *)
let split_labels name =
  match String.index_opt name '{' with
  | None -> (name, "")
  | Some i ->
      let base = String.sub name 0 i in
      let rest = String.sub name (i + 1) (String.length name - i - 1) in
      let labels =
        if String.length rest > 0 && rest.[String.length rest - 1] = '}' then
          String.sub rest 0 (String.length rest - 1)
        else rest
      in
      (base, labels)

let prometheus_string ms =
  let buf = Buffer.create 1024 in
  (* Group samples into metric families (base name before any inline
     labels), then sort families by name and label sets within each
     family.  The rendering is byte-stable whatever order the snapshot
     arrives in, and a family's samples are never interleaved with
     another's — raw name sorting would put "foo_bar" between "foo" and
     "foo{...}" ('_' < '{'), splitting the foo family around it. *)
  let families : (string, (string * Ctx.metric) list ref) Hashtbl.t =
    Hashtbl.create 16
  in
  List.iter
    (fun (name, m) ->
      let base, labels = split_labels name in
      match Hashtbl.find_opt families base with
      | Some l -> l := (labels, m) :: !l
      | None -> Hashtbl.replace families base (ref [ (labels, m) ]))
    ms;
  let sorted =
    Hashtbl.fold
      (fun base l acc ->
        (base, List.sort (fun (a, _) (b, _) -> compare a b) (List.rev !l)) :: acc)
      families []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  let typed = Hashtbl.create 16 in
  let type_line base kind =
    if not (Hashtbl.mem typed base) then begin
      Hashtbl.replace typed base kind;
      Buffer.add_string buf (Printf.sprintf "# TYPE %s %s\n" base kind)
    end
  in
  let with_labels base labels extra =
    let all = List.filter (fun s -> s <> "") [ labels; extra ] in
    match all with
    | [] -> base
    | _ -> base ^ "{" ^ String.concat "," all ^ "}"
  in
  let render base (labels, m) =
    match (m : Ctx.metric) with
      | Ctx.Counter c ->
          type_line base "counter";
          Buffer.add_string buf
            (Printf.sprintf "%s %s\n" (with_labels base labels "") (num c.count))
      | Ctx.Gauge g ->
          type_line base "gauge";
          Buffer.add_string buf
            (Printf.sprintf "%s %s\n" (with_labels base labels "") (num g.value))
      | Ctx.Histogram h ->
          type_line base "histogram";
          let cum = ref 0 in
          Array.iteri
            (fun i n ->
              cum := !cum + n;
              let le =
                if i < Array.length h.bounds then
                  Printf.sprintf "%g" h.bounds.(i)
                else "+Inf"
              in
              Buffer.add_string buf
                (Printf.sprintf "%s %d\n"
                   (with_labels (base ^ "_bucket") labels
                      (Printf.sprintf "le=\"%s\"" le))
                   !cum))
            h.counts;
          Buffer.add_string buf
            (Printf.sprintf "%s %s\n"
               (with_labels (base ^ "_sum") labels "")
               (num h.sum));
          Buffer.add_string buf
            (Printf.sprintf "%s %d\n"
               (with_labels (base ^ "_count") labels "")
               h.observations)
  in
  List.iter (fun (base, samples) -> List.iter (render base) samples) sorted;
  Buffer.contents buf
