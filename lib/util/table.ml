type align = Left | Right | Center

type t = {
  headers : string array;
  aligns : align array;
  mutable rows : string array list; (* reverse order *)
}

let create ?aligns headers =
  let headers = Array.of_list headers in
  let width = Array.length headers in
  if width = 0 then invalid_arg "Table.create: empty header";
  let aligns =
    match aligns with
    | None -> Array.init width (fun i -> if i = 0 then Left else Right)
    | Some a ->
        if List.length a <> width then invalid_arg "Table.create: aligns width mismatch";
        Array.of_list a
  in
  { headers; aligns; rows = [] }

let add_row t row =
  let row = Array.of_list row in
  if Array.length row <> Array.length t.headers then
    invalid_arg
      (Printf.sprintf "Table.add_row: expected %d columns, got %d"
         (Array.length t.headers) (Array.length row));
  t.rows <- row :: t.rows


let pad align width s =
  let len = String.length s in
  if len >= width then s
  else begin
    let gap = width - len in
    match align with
    | Left -> s ^ String.make gap ' '
    | Right -> String.make gap ' ' ^ s
    | Center ->
        let left = gap / 2 in
        String.make left ' ' ^ s ^ String.make (gap - left) ' '
  end

let render ?title t =
  let rows = List.rev t.rows in
  let ncols = Array.length t.headers in
  let widths = Array.map String.length t.headers in
  List.iter
    (fun row -> Array.iteri (fun i cell -> widths.(i) <- max widths.(i) (String.length cell)) row)
    rows;
  let buf = Buffer.create 1024 in
  let rule () =
    Buffer.add_char buf '+';
    Array.iter
      (fun w ->
        Buffer.add_string buf (String.make (w + 2) '-');
        Buffer.add_char buf '+')
      widths;
    Buffer.add_char buf '\n'
  in
  let emit_row cells =
    Buffer.add_char buf '|';
    for i = 0 to ncols - 1 do
      Buffer.add_char buf ' ';
      Buffer.add_string buf (pad t.aligns.(i) widths.(i) cells.(i));
      Buffer.add_string buf " |"
    done;
    Buffer.add_char buf '\n'
  in
  (match title with
  | Some s ->
      Buffer.add_string buf s;
      Buffer.add_char buf '\n'
  | None -> ());
  rule ();
  emit_row t.headers;
  rule ();
  List.iter emit_row rows;
  rule ();
  Buffer.contents buf

let markdown_escape field =
  let buf = Buffer.create (String.length field) in
  String.iter
    (fun c -> if c = '|' then Buffer.add_string buf "\\|" else Buffer.add_char buf c)
    field;
  Buffer.contents buf

let to_markdown t =
  let buf = Buffer.create 1024 in
  let emit cells =
    Buffer.add_string buf "| ";
    Buffer.add_string buf
      (String.concat " | " (List.map markdown_escape (Array.to_list cells)));
    Buffer.add_string buf " |\n"
  in
  emit t.headers;
  Buffer.add_string buf "|";
  Array.iter
    (fun align ->
      Buffer.add_string buf
        (match align with Left -> "---|" | Right -> "---:|" | Center -> ":---:|"))
    t.aligns;
  Buffer.add_char buf '\n';
  List.iter emit (List.rev t.rows);
  Buffer.contents buf

let csv_escape field =
  let needs_quote =
    String.exists (fun c -> c = ',' || c = '"' || c = '\n' || c = '\r') field
  in
  if not needs_quote then field
  else begin
    let buf = Buffer.create (String.length field + 2) in
    Buffer.add_char buf '"';
    String.iter
      (fun c ->
        if c = '"' then Buffer.add_string buf "\"\"" else Buffer.add_char buf c)
      field;
    Buffer.add_char buf '"';
    Buffer.contents buf
  end

let to_csv t =
  let buf = Buffer.create 1024 in
  let emit cells =
    Buffer.add_string buf (String.concat "," (List.map csv_escape (Array.to_list cells)));
    Buffer.add_char buf '\n'
  in
  emit t.headers;
  List.iter emit (List.rev t.rows);
  Buffer.contents buf

let save_csv ~dir ~name t =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let path = Filename.concat dir (name ^ ".csv") in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_csv t));
  path
