(* Model checking the paper, in miniature: verify the block-ack specs
   exhaustively, then watch the checker find (a) the intro's go-back-N
   failure and (b) the aliasing bug when the wire modulus drops below 2w.

   Run with: dune exec examples/model_check_demo.exe *)

let banner title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

let section2 = { Ba_model.Ba_kernel.w = 2; lead = None; n = None; limit = 4; timer = Whole_channel }

let () =
  banner "1. Section II protocol (w=2, 4-message transfer): exhaustive check";
  let r = Ba_verify.Explorer.run_spec (Ba_model.Ba_kernel.spec section2) in
  Format.printf "%a" Ba_verify.Explorer.pp_result r;

  banner "2. Section V protocol with the proven modulus n = 2w";
  let r5 = Ba_verify.Explorer.run_spec (Ba_model.Ba_kernel.spec { section2 with n = Some 4 }) in
  Format.printf "%a" Ba_verify.Explorer.pp_result r5;
  Printf.printf
    "(identical state space to the unbounded protocol: %d vs %d states — the modulo\n\
     encoding is transparent, which is exactly what Section V proves)\n"
    r5.Ba_verify.Explorer.state_count r.Ba_verify.Explorer.state_count;

  banner "3. Shrink the modulus to n = 2w - 1 = 3: reconstruction must break";
  let bad =
    Ba_verify.Explorer.run_spec (Ba_model.Ba_kernel.spec { section2 with n = Some 3; limit = 6 })
  in
  Format.printf "%a" Ba_verify.Explorer.pp_result bad;

  banner "4. The introduction's strawman: bounded go-back-N under reorder";
  let gbn = Ba_verify.Explorer.run_spec (Ba_model.Gbn_bounded_spec.default ~w:2 ~limit:6 ()) in
  Format.printf "%a" Ba_verify.Explorer.pp_result gbn;
  print_endline
    "\nThe counterexample above is the paper's opening scenario: both data messages\n\
     are delivered, but the two cumulative acknowledgments arrive in the wrong\n\
     order and the stale one is decoded as a recent one. Block acknowledgment is\n\
     immune because an ack names its block explicitly — run 1 explored every\n\
     interleaving (including this one) and found no violation."
