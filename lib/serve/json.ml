(* The codec lives in {!Hca_util.Json}; this alias keeps the
   [Hca_serve.Json] path that the benchmark harness under [perfbench/]
   names. *)
include Hca_util.Json
