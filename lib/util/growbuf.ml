module Floats = struct
  type t = { mutable data : float array; mutable len : int }

  let create () = { data = Array.make 1024 0.; len = 0 }

  let push t v =
    if t.len = Array.length t.data then begin
      let grown = Array.make (2 * t.len) 0. in
      Array.blit t.data 0 grown 0 t.len;
      t.data <- grown
    end;
    t.data.(t.len) <- v;
    t.len <- t.len + 1

  let length t = t.len

  let get t i =
    if i < 0 || i >= t.len then invalid_arg "Growbuf.get: index out of bounds";
    t.data.(i)

  let reset t = t.len <- 0
  let contents t = Array.sub t.data 0 t.len
end

module Ints = struct
  type t = { mutable data : int array; mutable len : int }

  let create () = { data = Array.make 1024 0; len = 0 }

  let push t v =
    if t.len = Array.length t.data then begin
      let grown = Array.make (2 * t.len) 0 in
      Array.blit t.data 0 grown 0 t.len;
      t.data <- grown
    end;
    t.data.(t.len) <- v;
    t.len <- t.len + 1

  let length t = t.len

  let get t i =
    if i < 0 || i >= t.len then invalid_arg "Growbuf.get: index out of bounds";
    t.data.(i)

  let reset t = t.len <- 0
  let contents t = Array.sub t.data 0 t.len
end
