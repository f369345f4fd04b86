(* Versioned, checksummed Marshal container shared by the SELF binary
   format and the persistent translation cache.

   Layout (all integers big-endian):
     magic      8 bytes   caller-chosen, format + generation (e.g. "SELF0002")
     version    4 bytes   caller-chosen payload schema version
     length     8 bytes   payload byte count
     payload    N bytes   Marshal encoding of the value
     digest    16 bytes   MD5 over magic .. payload

   The reader never raises on bad input: every deviation — short file, wrong
   magic, other version, checksum mismatch, unmarshalable payload — comes
   back as [Error reason] with a stable one-word reason, so callers can fall
   back (cache loads go cold) or fail with a clear message (binfile). *)

let header_len = 8 + 4 + 8
let digest_len = 16

let check_magic magic =
  if String.length magic <> 8 then
    invalid_arg "Container: magic must be exactly 8 bytes"

let write ~path ~magic ~version v =
  check_magic magic;
  let payload = Marshal.to_bytes v [] in
  let head = Bytes.create header_len in
  Bytes.blit_string magic 0 head 0 8;
  Bytes.set_int32_be head 8 (Int32.of_int version);
  Bytes.set_int64_be head 12 (Int64.of_int (Bytes.length payload));
  let digest =
    let ctx = Bytes.cat head payload in
    Digest.bytes ctx
  in
  (* write to a temp file in the same directory and rename into place, so a
     crash mid-write never leaves a half-written container under [path].
     The temp name is unique to this writer: concurrent writers of one path
     (two domains or processes storing the same cache key) each rename
     their own complete file, and the last rename wins. *)
  let tmp, oc =
    Filename.open_temp_file ~mode:[ Open_binary ] ~perms:0o666
      ~temp_dir:(Filename.dirname path) (Filename.basename path ^ ".") ".tmp"
  in
  (try
     output_bytes oc head;
     output_bytes oc payload;
     output_string oc digest;
     close_out oc
   with e ->
     close_out_noerr oc;
     (try Sys.remove tmp with Sys_error _ -> ());
     raise e);
  Sys.rename tmp path

let read_all path =
  match open_in_bin path with
  | exception Sys_error _ -> Error "missing"
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let len = in_channel_length ic in
          let b = Bytes.create len in
          really_input ic b 0 len;
          Ok b)

(* A file whose frame checked out: magic, version, length and MD5 all
   verified, payload not yet unmarshaled. *)
type frame = { raw : bytes; plen : int }

let check ~path ~magic ~version =
  check_magic magic;
  match read_all path with
  | Error _ as e -> e
  | Ok b ->
      let len = Bytes.length b in
      if len < header_len + digest_len then Error "truncated"
      else if Bytes.sub_string b 0 8 <> magic then Error "magic"
      else if Int32.to_int (Bytes.get_int32_be b 8) <> version then
        Error "version"
      else
        let plen = Int64.to_int (Bytes.get_int64_be b 12) in
        if plen < 0 || len <> header_len + plen + digest_len then
          Error "truncated"
        else
          let stored =
            Bytes.sub_string b (header_len + plen) digest_len
          in
          let computed = Digest.subbytes b 0 (header_len + plen) in
          if not (String.equal stored computed) then Error "checksum"
          else Ok { raw = b; plen }

let frame_digest f = Bytes.sub_string f.raw (header_len + f.plen) digest_len

let decode f =
  match Marshal.from_bytes f.raw header_len with
  | v -> Ok v
  | exception _ -> Error "decode"

let read ~path ~magic ~version = Result.bind (check ~path ~magic ~version) decode

let peek_version ~path ~magic =
  check_magic magic;
  match read_all path with
  | Error _ -> None
  | Ok b ->
      if Bytes.length b >= 12 && Bytes.sub_string b 0 8 = magic then
        Some (Int32.to_int (Bytes.get_int32_be b 8))
      else None
