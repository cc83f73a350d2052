(* Every experiment table at [~quick:true]. [dune runtest] diffs this
   output against golden_tables.expected, so any change in protocol
   behaviour — including the simple-timeout sender, which no other
   equivalence suite replays — surfaces as a table diff. After an
   intentional change, review the diff and run [dune promote]. *)

let () = Ba_experiments.Experiments.run_all ~quick:true ()
