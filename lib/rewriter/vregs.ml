let base = 0x0F00_0000
let vl_off = 0
let vsew_off = 8
let vlen_bytes = Machine.vlen_bytes
let vreg_off v = 16 + (Reg.v_to_int v * vlen_bytes)
let section_size = 16 + (32 * vlen_bytes)

let section () =
  { Binfile.sec_name = ".chimera.vregs";
    sec_addr = base;
    sec_data = Bytes.make section_size '\000';
    sec_perm = Memory.perm_rw }
