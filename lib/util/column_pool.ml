(* One pool per domain, like [Wire]'s frame pool: parallel runners each
   get their own, so taking and giving need no synchronization. A
   column's ownership moves with it: whoever gives a column must not
   touch it again, and a domain may give back a column another domain
   took.

   Columns are kept by exact length, so a taker gets exactly the
   capacity it asked for, and each length's columns are a stack. The
   pooled words are capped: beyond [max_words] a given column is left
   to the collector, as if nobody had given it. *)

let max_words = 1 lsl 19

type stack = { mutable items : int array array; mutable len : int }
type t = { by_len : (int, stack) Hashtbl.t; mutable words : int }

let fresh () = { by_len = Hashtbl.create 64; words = 0 }
let key = Domain.DLS.new_key fresh

(* The starting domain's pool exists from start-up, so a first take
   inside a measured window leaves nothing of the pool behind in it. *)
let () = ignore (Domain.DLS.get key)

let take n fill =
  let p = Domain.DLS.get key in
  match Hashtbl.find_opt p.by_len n with
  | Some s when s.len > 0 ->
      s.len <- s.len - 1;
      let a = s.items.(s.len) in
      s.items.(s.len) <- [||];
      p.words <- p.words - n;
      Array.fill a 0 n fill;
      a
  | Some _ | None -> Array.make n fill

let give a =
  let n = Array.length a in
  let p = Domain.DLS.get key in
  if n > 0 && p.words + n <= max_words then begin
    let s =
      match Hashtbl.find_opt p.by_len n with
      | Some s -> s
      | None ->
          let s = { items = [||]; len = 0 } in
          Hashtbl.add p.by_len n s;
          s
    in
    if s.len = Array.length s.items then begin
      let items = Array.make (max 4 (2 * s.len)) [||] in
      Array.blit s.items 0 items 0 s.len;
      s.items <- items
    end;
    s.items.(s.len) <- a;
    s.len <- s.len + 1;
    p.words <- p.words + n
  end

(* The largest array the minor heap holds: [Max_young_wosize]. *)
let young_words = 256

let give_outgrown a = if Array.length a > young_words then give a

let grow a cap fill =
  let b = take cap fill in
  Array.blit a 0 b 0 (Array.length a);
  give_outgrown a;
  b

let clear () = Domain.DLS.set key (fresh ())

(* An immediate is never young, so [Array.make] takes no minor
   collection to build a long column of it. *)
let blank n : 'a array = Array.make n (Obj.magic 0)
