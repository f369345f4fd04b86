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

(* Files are read into a buffer owned by the calling domain and grown on
   demand, not into a fresh file-sized [Bytes]: a warm cache request checks
   two or three frames, and a fresh buffer per check would put every one
   of them on the major heap. A frame therefore aliases the buffer and
   lives until the next [check] on its domain; [gen] counts the checks, so
   a stale frame is refused rather than read. *)
type buf = { mutable bytes : bytes; mutable gen : int }

let buf_key =
  Domain.DLS.new_key (fun () -> { bytes = Bytes.create 65536; gen = 0 })

let read_all path =
  match open_in_bin path with
  | exception Sys_error _ -> Error "missing"
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let len = in_channel_length ic in
          let buf = Domain.DLS.get buf_key in
          buf.gen <- buf.gen + 1;
          if len > Bytes.length buf.bytes then
            buf.bytes <- Bytes.create (max len (2 * Bytes.length buf.bytes));
          match really_input ic buf.bytes 0 len with
          | () -> Ok (buf, len)
          | exception End_of_file -> Error "truncated")

(* A file whose frame checked out: magic, version, length and MD5 all
   verified, payload not yet unmarshaled, in the buffer of the domain
   that checked it. *)
type frame = { buf : buf; gen : int; plen : int }

let raw f =
  if f.gen <> f.buf.gen then
    invalid_arg "Container: frame used after a later check on its domain";
  f.buf.bytes

let check ~path ~magic ~version =
  check_magic magic;
  match read_all path with
  | Error _ as e -> e
  | Ok (buf, len) ->
      let b = buf.bytes in
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
          else Ok { buf; gen = buf.gen; plen }

let frame_digest f = Bytes.sub_string (raw f) (header_len + f.plen) digest_len

(* The buffer outlives the file, so Marshal's own bounds check is against
   the buffer: the payload's Marshal header must claim exactly [plen]
   bytes, or stale bytes past the frame could be read as payload. *)
let decode f =
  let b = raw f in
  match Marshal.total_size b header_len with
  | n when n = f.plen -> (
      match Marshal.from_bytes b header_len with
      | v -> Ok v
      | exception _ -> Error "decode")
  | _ | (exception _) -> Error "decode"

let read ~path ~magic ~version = Result.bind (check ~path ~magic ~version) decode

let peek_version ~path ~magic =
  check_magic magic;
  match read_all path with
  | Error _ -> None
  | Ok (buf, len) ->
      if len >= 12 && Bytes.sub_string buf.bytes 0 8 = magic then
        Some (Int32.to_int (Bytes.get_int32_be buf.bytes 8))
      else None
