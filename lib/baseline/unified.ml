open Hca_ddg
open Hca_machine

let mii ddg fabric = Mii.mii ddg (Dspfabric.resources fabric)

let gap ddg fabric ~final_mii =
  float_of_int final_mii /. float_of_int (mii ddg fabric)
