module Device = Repro_pmem.Device
module Sched = Repro_sched.Sched
module Types = Repro_vfs.Types
module Dir_index = Repro_vfs.Dir_index
module Int_map = Repro_rbtree.Ordmap.Int_map
module Codec = Winefs.Codec
module Layout = Winefs.Layout
module Inode = Winefs.Inode

let read dev cpu ~off ~len =
  let b = Bytes.create len in
  Device.read dev cpu ~off ~len ~dst:b ~dst_off:0;
  b

let rec read_chain dev cpu blk acc =
  if blk = 0 then List.rev acc
  else
    let next, _count =
      Codec.Overflow.decode_header (read dev cpu ~off:blk ~len:Codec.Overflow.header_bytes)
    in
    read_chain dev cpu next (blk :: acc)

let load_region dev cpu (f : Inode.file) ~addr ~first_slot ~count =
  let eb = Codec.Inode.extent_bytes in
  let b = read dev cpu ~off:addr ~len:(count * eb) in
  for i = 0 to count - 1 do
    let off = i * eb in
    let slot = first_slot + i in
    let len = Codec.Inode.extent_len_at b off in
    if len > 0 then
      Int_map.insert f.records
        (Codec.Inode.extent_file_off_at b off)
        { slot; phys = Codec.Inode.extent_phys_at b off; len; asrc = Codec.Inode.extent_asrc_at b off }
    else if slot < Layout.inline_extents then f.free_inline <- f.free_inline lor (1 lsl slot)
    else f.free_slots <- slot :: f.free_slots
  done

let load_file dev cpu layout ino (h : Codec.Inode.header) : Inode.file =
  let is_dir = h.is_dir in
  let f =
    {
      Inode.ino;
      kind = (if is_dir then Types.Directory else Types.Regular);
      size = h.size;
      nlink = h.nlink;
      xattr_align = h.xattr_align;
      parent = 0;
      dname = "";
      records = Int_map.create ();
      free_slots = [];
      free_inline = 0;
      slot_cap = 0;
      overflow = [];
      dir = (if is_dir then Some (Dir_index.create Dram_rbtree) else None);
      free_dentries = [];
      lock = Sched.create_mutex ();
      dirty_bytes = 0;
    }
  in
  f.overflow <- read_chain dev cpu h.overflow [];
  f.slot_cap <- Layout.inline_extents + (List.length f.overflow * Codec.Overflow.capacity);
  load_region dev cpu f
    ~addr:(Layout.inode_off layout ino + Codec.Inode.extent_slot_off 0)
    ~first_slot:0 ~count:Layout.inline_extents;
  List.iteri
    (fun b blk ->
      load_region dev cpu f
        ~addr:(blk + Codec.Overflow.record_off 0)
        ~first_slot:(Layout.inline_extents + (b * Codec.Overflow.capacity))
        ~count:Codec.Overflow.capacity)
    f.overflow;
  f

let load_dir dev cpu files (d : Inode.file) =
  let idx = Option.get d.dir in
  Int_map.iter d.records (fun file_off (r : Inode.record) ->
      let b = read dev cpu ~off:r.phys ~len:r.len in
      for i = 0 to (r.len / Codec.dentry_bytes) - 1 do
        if file_off + (i * Codec.dentry_bytes) < d.size then
          match Codec.Dentry.decode_at b (i * Codec.dentry_bytes) with
          | Some e ->
              Dir_index.add idx cpu ~name:e.name ~ino:e.ino
                ~slot:(r.phys + (i * Codec.dentry_bytes));
              List.iter
                (fun (c : Inode.file) ->
                  if c.ino = e.ino then begin
                    c.parent <- d.ino;
                    c.dname <- e.name
                  end)
                files
          | None -> ()
      done)

let load dev layout cpu =
  let files = ref [] in
  for c = 0 to layout.Layout.cpus - 1 do
    for idx = 0 to layout.Layout.inodes_per_cpu - 1 do
      let ino = Layout.ino_of layout ~cpu:c ~idx in
      let hb = read dev cpu ~off:(Layout.inode_off layout ino) ~len:Codec.Inode.header_bytes in
      if not (Codec.Inode.header_is_blank hb) then begin
        assert (Codec.Inode.header_csum_ok hb);
        let h = Codec.Inode.decode_header hb in
        if h.valid then files := load_file dev cpu layout ino h :: !files
      end
    done
  done;
  let files = List.rev !files in
  List.iter (fun (f : Inode.file) -> if Option.is_some f.dir then load_dir dev cpu files f) files;
  files
