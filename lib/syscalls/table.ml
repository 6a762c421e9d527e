(* The modeled system-call table.

   Each entry gives the call's kernel-op program: which locks it takes,
   which software caches it probes, whether it broadcasts IPIs, and how
   much raw in-kernel CPU it burns.  Holds and costs are calibrated so
   that single-tenant medians land in the 200ns–100µs range the paper's
   Table 2 reports for native Linux, with argument sensitivity (transfer
   sizes select different path lengths, flags select e.g. sync vs
   buffered variants).

   The building-block helpers below are shared; individual entries vary
   the parameters, so no two calls execute an identical program unless
   the real kernel's paths are also near-identical (e.g. getuid/getgid). *)

open Ksurf_kernel.Ops
module Category = Ksurf_kernel.Category
module Dist = Ksurf_util.Dist

let h median sigma = Dist.lognormal ~median ~sigma

(* --- shared path fragments ------------------------------------------- *)

(* Path resolution: one dcache probe per component. *)
let path_walk depth = List.init depth (fun _ -> Dcache_lookup)

(* File-descriptor table lookup (RCU-protected, cheap). *)
let fd_lookup = Cpu 70.0

(* Copying [size] bytes between user and kernel space (~16 GB/s). *)
let copy_cost size = Cpu (40.0 +. (0.062 *. float_of_int size))

(* Page-cache traffic for a [size]-byte transfer: probe up to four pages
   explicitly (events are expensive), account the rest as CPU. *)
let page_cache_io size =
  let pages = max 1 ((size + 4095) / 4096) in
  let probes = min pages 4 in
  List.init probes (fun _ -> Page_cache_lookup)
  @ if pages > probes then [ Cpu (float_of_int (pages - probes) *. 55.0) ] else []

(* Credential check on permission-sensitive paths. *)
let cred_check = Cpu 45.0

(* Audit-record emission: serialised on the audit lock.  Formatting and
   queueing the record is microseconds of work, so convoys of concurrent
   permission calls on a big instance stretch into the milliseconds. *)
let audit_record = Lock (Audit, h 8_000.0 0.8)

(* Scheduler wakeup/dequeue on the caller's runqueue. *)
let rq_op hold = Lock (Runqueue, h hold 0.35)

(* Global task-list / pid-table critical section. *)
let tasklist_op hold = Lock (Tasklist, h hold 0.4)

(* Inode mutation under the striped inode lock. *)
let inode_op hold = Lock (Inode, h hold 0.4)

(* Journalled metadata update: dirties the journal under its lock. *)
let journal_op hold = Lock (Journal, h hold 0.5)

(* Journalled inode update: the transaction handle is opened while the
   inode lock is held, as ext4's sequence does — the inode -> journal
   lock-order edge every journalled write path exhibits. *)
let journalled_inode_op ~inode ~journal =
  With_lock (Inode, h inode 0.4, [ journal_op journal ])

(* Directory-namespace mutation: the dcache (rename/namespace) lock is
   held across the victim's inode lock, rename_lock-style — the
   dcache -> inode edge. *)
let namespace_op ~dcache ~inode =
  With_lock (Dcache, h dcache 0.4, [ inode_op inode ])

let spec = Spec.make

(* An argument-independent op program, built once when the table is
   initialised instead of on every call: [spec.ops arg] then returns the
   same immutable list without allocating. *)
let fixed program =
  let ops = program () in
  fun (_ : Arg.t) -> ops

(* ====================================================================
   (a) Process management / scheduling
   ==================================================================== *)

let process_specs =
  [
    spec ~name:"fork" ~number:57 ~categories:[ Category.Process ]
      ~doc:"duplicate the calling process" (fixed (fun () ->
        [
          Cpu 9_000.0; (* copy mm/files/signal structs *)
          Slab_alloc;
          Slab_alloc;
          tasklist_op 900.0;
          Page_alloc 2;
          rq_op 250.0;
          Cgroup_charge;
        ]));
    spec ~name:"vfork" ~number:58 ~categories:[ Category.Process ]
      ~doc:"create child sharing the parent's memory" (fixed (fun () ->
        [ Cpu 4_500.0; Slab_alloc; tasklist_op 700.0; rq_op 250.0; Cgroup_charge ]));
    spec ~name:"clone" ~number:56 ~categories:[ Category.Process ]
      ~arg_model:(Arg.objected ~max_flags:8 4)
      ~doc:"create a child process or thread with shared resources"
      (fun arg ->
        let share_vm = arg.Arg.flags land 1 = 1 in
        [
          Cpu (if share_vm then 3_000.0 else 8_000.0);
          Slab_alloc;
          tasklist_op 800.0;
          rq_op 250.0;
          Cgroup_charge;
        ]);
    spec ~name:"execve" ~number:59 ~categories:[ Category.Process ]
      ~arg_model:(Arg.objected 8)
      ~doc:"execute a program, replacing the address space" (fixed (fun () ->
        path_walk 3
        @ [
            Cpu 25_000.0; (* load + relocate *)
            Write_lock (Mmap_sem, h 1_500.0 0.4);
            Page_alloc 3;
            Tlb_shootdown; (* old address space torn down *)
            tasklist_op 600.0;
            Cgroup_charge;
          ]));
    spec ~name:"exit_group" ~number:231 ~categories:[ Category.Process ]
      ~doc:"terminate all threads in the process" (fixed (fun () ->
        [
          Cpu 5_000.0;
          tasklist_op 800.0;
          Rcu_sync; (* task struct freed after grace period *)
          rq_op 300.0;
        ]));
    spec ~name:"wait4" ~number:61 ~categories:[ Category.Process ]
      ~doc:"wait for a child to change state" (fixed (fun () ->
        [ tasklist_op 400.0; Sleep (h 12_000.0 0.8); rq_op 220.0 ]));
    spec ~name:"waitid" ~number:247 ~categories:[ Category.Process ]
      ~doc:"wait for a child matching an id selector" (fixed (fun () ->
        [ tasklist_op 450.0; Sleep (h 12_000.0 0.8); rq_op 220.0 ]));
    spec ~name:"getpid" ~number:39 ~categories:[ Category.Process ]
      ~doc:"return the caller's process id" (fixed (fun () -> [ Cpu 60.0 ]));
    spec ~name:"getppid" ~number:110 ~categories:[ Category.Process ]
      ~doc:"return the parent's process id" (fixed (fun () -> [ Cpu 70.0 ]));
    spec ~name:"gettid" ~number:186 ~categories:[ Category.Process ]
      ~doc:"return the caller's thread id" (fixed (fun () -> [ Cpu 55.0 ]));
    spec ~name:"sched_yield" ~number:24 ~categories:[ Category.Process ]
      ~doc:"relinquish the CPU" (fixed (fun () -> [ rq_op 300.0 ]));
    spec ~name:"sched_setaffinity" ~number:203 ~categories:[ Category.Process ]
      ~doc:"pin a task to a CPU set" (fixed (fun () ->
        [ tasklist_op 350.0; rq_op 500.0; Rcu_sync ]));
    spec ~name:"sched_getaffinity" ~number:204 ~categories:[ Category.Process ]
      ~doc:"read a task's CPU mask" (fixed (fun () -> [ tasklist_op 200.0; Cpu 120.0 ]));
    spec ~name:"sched_setscheduler" ~number:144 ~categories:[ Category.Process; Category.Perm ]
      ~doc:"set scheduling policy and priority" (fixed (fun () ->
        [ cred_check; tasklist_op 350.0; rq_op 600.0 ]));
    spec ~name:"sched_getscheduler" ~number:145 ~categories:[ Category.Process ]
      ~doc:"read a task's scheduling policy" (fixed (fun () -> [ tasklist_op 180.0 ]));
    spec ~name:"sched_setparam" ~number:142 ~categories:[ Category.Process ]
      ~doc:"set scheduling parameters" (fixed (fun () -> [ tasklist_op 300.0; rq_op 450.0 ]));
    spec ~name:"sched_getparam" ~number:143 ~categories:[ Category.Process ]
      ~doc:"read scheduling parameters" (fixed (fun () -> [ tasklist_op 180.0 ]));
    spec ~name:"sched_get_priority_max" ~number:146 ~categories:[ Category.Process ]
      ~doc:"max static priority of a policy" (fixed (fun () -> [ Cpu 65.0 ]));
    spec ~name:"nanosleep" ~number:35 ~categories:[ Category.Process ]
      ~arg_model:(Arg.sized [| 1000; 10_000; 100_000 |])
      ~doc:"high-resolution sleep" (fun arg ->
        [
          Cpu 400.0;
          Sleep (Dist.shifted (float_of_int arg.Arg.size) (h 2_000.0 0.6));
          rq_op 280.0;
        ]);
    spec ~name:"kill" ~number:62 ~categories:[ Category.Process; Category.Ipc ]
      ~doc:"send a signal to a process" (fixed (fun () ->
        [ cred_check; tasklist_op 400.0; rq_op 300.0 ]));
    spec ~name:"tgkill" ~number:234 ~categories:[ Category.Process; Category.Ipc ]
      ~doc:"send a signal to a specific thread" (fixed (fun () ->
        [ cred_check; tasklist_op 380.0; rq_op 300.0 ]));
    spec ~name:"rt_sigaction" ~number:13 ~categories:[ Category.Process ]
      ~doc:"install a signal handler" (fixed (fun () -> [ Cpu 250.0; tasklist_op 200.0 ]));
    spec ~name:"rt_sigprocmask" ~number:14 ~categories:[ Category.Process ]
      ~doc:"alter the blocked-signal mask" (fixed (fun () -> [ Cpu 150.0 ]));
    spec ~name:"rt_sigpending" ~number:127 ~categories:[ Category.Process ]
      ~doc:"inspect pending signals" (fixed (fun () -> [ Cpu 130.0 ]));
    spec ~name:"sigaltstack" ~number:131 ~categories:[ Category.Process ]
      ~doc:"set the alternate signal stack" (fixed (fun () -> [ Cpu 160.0 ]));
    spec ~name:"setpriority" ~number:141 ~categories:[ Category.Process ]
      ~doc:"set a task's nice value" (fixed (fun () ->
        [ cred_check; tasklist_op 350.0; rq_op 400.0 ]));
    spec ~name:"getpriority" ~number:140 ~categories:[ Category.Process ]
      ~doc:"read a task's nice value" (fixed (fun () -> [ tasklist_op 180.0 ]));
    spec ~name:"prctl" ~number:157 ~categories:[ Category.Process ]
      ~arg_model:(Arg.objected ~max_flags:8 1)
      ~doc:"process-specific operations" (fun arg ->
        [ Cpu (180.0 +. (float_of_int arg.Arg.flags *. 60.0)); tasklist_op 250.0 ]);
    spec ~name:"getrusage" ~number:98 ~categories:[ Category.Process ]
      ~doc:"resource usage of the caller or children" (fixed (fun () ->
        [ tasklist_op 300.0; Cpu 400.0 ]));
    spec ~name:"times" ~number:100 ~categories:[ Category.Process ]
      ~doc:"process CPU times" (fixed (fun () -> [ Cpu 220.0 ]));
    spec ~name:"setsid" ~number:112 ~categories:[ Category.Process ]
      ~doc:"create a new session" (fixed (fun () -> [ tasklist_op 500.0 ]));
    spec ~name:"setpgid" ~number:109 ~categories:[ Category.Process ]
      ~doc:"move a process to a process group" (fixed (fun () -> [ tasklist_op 450.0 ]));
    spec ~name:"getpgid" ~number:121 ~categories:[ Category.Process ]
      ~doc:"read a process's group id" (fixed (fun () -> [ tasklist_op 180.0 ]));
    spec ~name:"personality" ~number:135 ~categories:[ Category.Process ]
      ~doc:"set the execution domain" (fixed (fun () -> [ Cpu 110.0 ]));
    spec ~name:"uname" ~number:63 ~categories:[ Category.Process ]
      ~doc:"system identification" (fixed (fun () -> [ Cpu 180.0 ]));
  ]

(* ====================================================================
   (b) Memory management
   ==================================================================== *)

let memory_specs =
  [
    spec ~name:"mmap" ~number:9 ~categories:[ Category.Memory ] ~arg_model:Arg.io
      ~doc:"map anonymous or file-backed memory" (fun arg ->
        let pages = max 1 (arg.Arg.size / 4096) in
        [
          Write_lock (Mmap_sem, h 600.0 0.4);
          Slab_alloc; (* vma *)
          Cpu (120.0 +. (float_of_int (min pages 32) *. 12.0));
          Cgroup_charge;
        ]);
    spec ~name:"munmap" ~number:11 ~categories:[ Category.Memory ] ~arg_model:Arg.io
      ~doc:"unmap a memory region and flush stale TLB entries" (fun arg ->
        let pages = max 1 (arg.Arg.size / 4096) in
        [
          Write_lock (Mmap_sem, h 700.0 0.4);
          Cpu (float_of_int (min pages 64) *. 30.0);
          Tlb_shootdown;
          Lock (Zone, h 250.0 0.4); (* free pages to the buddy *)
        ]);
    spec ~name:"mremap" ~number:25 ~categories:[ Category.Memory ] ~arg_model:Arg.io
      ~doc:"grow, shrink or move a mapping" (fun arg ->
        [
          Write_lock (Mmap_sem, h 800.0 0.4);
          Cpu (200.0 +. (float_of_int (min arg.Arg.size 65536) *. 0.02));
          Tlb_shootdown;
          Page_alloc 1;
        ]);
    spec ~name:"mprotect" ~number:10 ~categories:[ Category.Memory ] ~arg_model:Arg.io
      ~doc:"change page protections" (fun arg ->
        let pages = max 1 (arg.Arg.size / 4096) in
        [
          Write_lock (Mmap_sem, h 500.0 0.4);
          Cpu (float_of_int (min pages 64) *. 18.0);
          Tlb_shootdown;
        ]);
    spec ~name:"brk" ~number:12 ~categories:[ Category.Memory ]
      ~arg_model:(Arg.sized [| 4096; 65536; 262144 |])
      ~doc:"adjust the program break" (fun arg ->
        [
          Write_lock (Mmap_sem, h 450.0 0.4);
          Page_alloc (if arg.Arg.size > 65536 then 4 else 1);
          Cgroup_charge;
        ]);
    spec ~name:"madvise" ~number:28 ~categories:[ Category.Memory ]
      ~arg_model:{ Arg.sizes = [| 4096; 65536; 1 lsl 20 |]; max_obj = 1; max_flags = 4 }
      ~doc:"advise the kernel about memory usage" (fun arg ->
        let dontneed = arg.Arg.flags = 1 in
        if dontneed then
          (* MADV_DONTNEED frees pages and must invalidate TLBs. *)
          [
            Read_lock (Mmap_sem, h 350.0 0.3);
            Cpu (float_of_int (min (arg.Arg.size / 4096) 64) *. 25.0);
            Tlb_shootdown;
            Lock (Zone, h 220.0 0.4);
          ]
        else [ Read_lock (Mmap_sem, h 300.0 0.3); Cpu 180.0 ]);
    spec ~name:"mlock" ~number:149 ~categories:[ Category.Memory; Category.Perm ]
      ~arg_model:(Arg.sized [| 4096; 65536 |])
      ~doc:"lock pages into RAM" (fun arg ->
        [
          cred_check;
          Write_lock (Mmap_sem, h 500.0 0.4);
          Cpu (float_of_int (max 1 (arg.Arg.size / 4096)) *. 40.0);
          Lock (Zone, h 300.0 0.4);
        ]);
    spec ~name:"munlock" ~number:150 ~categories:[ Category.Memory ]
      ~arg_model:(Arg.sized [| 4096; 65536 |])
      ~doc:"unlock pages" (fun arg ->
        [
          Write_lock (Mmap_sem, h 450.0 0.4);
          Cpu (float_of_int (max 1 (arg.Arg.size / 4096)) *. 30.0);
        ]);
    spec ~name:"mlockall" ~number:151 ~categories:[ Category.Memory; Category.Perm ]
      ~doc:"lock the whole address space" (fixed (fun () ->
        [ cred_check; Write_lock (Mmap_sem, h 900.0 0.4); Cpu 3_000.0; Lock (Zone, h 500.0 0.4) ]));
    spec ~name:"munlockall" ~number:152 ~categories:[ Category.Memory ]
      ~doc:"unlock the whole address space" (fixed (fun () ->
        [ Write_lock (Mmap_sem, h 700.0 0.4); Cpu 2_000.0 ]));
    spec ~name:"msync" ~number:26 ~categories:[ Category.Memory; Category.File_io ]
      ~arg_model:Arg.io ~doc:"flush a mapped region to its file" (fun arg ->
        [
          Read_lock (Mmap_sem, h 400.0 0.3);
          Block_io { bytes = min arg.Arg.size 262144; write = true };
          Tlb_shootdown; (* write-protect clean pages *)
        ]);
    spec ~name:"mincore" ~number:27 ~categories:[ Category.Memory ]
      ~arg_model:(Arg.sized [| 4096; 65536; 1 lsl 20 |])
      ~doc:"residency of pages in core" (fun arg ->
        [
          Read_lock (Mmap_sem, h 300.0 0.3);
          Cpu (float_of_int (max 1 (arg.Arg.size / 4096)) *. 8.0);
        ]);
    spec ~name:"memfd_create" ~number:319 ~categories:[ Category.Memory; Category.Fs_mgmt ]
      ~doc:"anonymous memory-backed file" (fixed (fun () ->
        [ Slab_alloc; inode_op 400.0; Cpu 600.0 ]));
    spec ~name:"mbind" ~number:237 ~categories:[ Category.Memory ]
      ~arg_model:(Arg.sized [| 65536; 1 lsl 20 |])
      ~doc:"set the NUMA policy of a range" (fixed (fun () ->
        [ Write_lock (Mmap_sem, h 600.0 0.4); Cpu 900.0 ]));
    spec ~name:"migrate_pages" ~number:256 ~categories:[ Category.Memory ]
      ~doc:"move a process's pages across NUMA nodes" (fixed (fun () ->
        [
          tasklist_op 350.0;
          Write_lock (Mmap_sem, h 1_000.0 0.4);
          Page_alloc 4;
          Cpu 15_000.0;
          Tlb_shootdown;
        ]));
    spec ~name:"remap_file_pages" ~number:216 ~categories:[ Category.Memory ]
      ~doc:"rearrange a file mapping (legacy)" (fixed (fun () ->
        [ Write_lock (Mmap_sem, h 700.0 0.4); Cpu 800.0; Tlb_shootdown ]));
    spec ~name:"get_mempolicy" ~number:239 ~categories:[ Category.Memory ]
      ~doc:"read the NUMA memory policy" (fixed (fun () ->
        [ Read_lock (Mmap_sem, h 250.0 0.3); Cpu 200.0 ]));
    spec ~name:"set_mempolicy" ~number:238 ~categories:[ Category.Memory ]
      ~doc:"set the NUMA memory policy" (fixed (fun () ->
        [ Write_lock (Mmap_sem, h 350.0 0.3); Cpu 300.0 ]));
  ]

(* ====================================================================
   (c) File I/O
   ==================================================================== *)

let file_io_specs =
  [
    spec ~name:"read" ~number:0 ~categories:[ Category.File_io ] ~arg_model:Arg.io
      ~doc:"read from a file descriptor through the page cache" (fun arg ->
        (fd_lookup :: page_cache_io arg.Arg.size) @ [ copy_cost arg.Arg.size ]);
    spec ~name:"write" ~number:1 ~categories:[ Category.File_io ] ~arg_model:Arg.io
      ~doc:"buffered write to a file descriptor" (fun arg ->
        let sync = arg.Arg.flags = 3 (* O_SYNC variant *) in
        (fd_lookup :: copy_cost arg.Arg.size :: page_cache_io arg.Arg.size)
        @ [ Cgroup_charge ]
        @ if sync then [ Block_io { bytes = arg.Arg.size; write = true } ] else []);
    spec ~name:"pread64" ~number:17 ~categories:[ Category.File_io ] ~arg_model:Arg.io
      ~doc:"positional read" (fun arg ->
        (fd_lookup :: Cpu 60.0 :: page_cache_io arg.Arg.size)
        @ [ copy_cost arg.Arg.size ]);
    spec ~name:"pwrite64" ~number:18 ~categories:[ Category.File_io ] ~arg_model:Arg.io
      ~doc:"positional write" (fun arg ->
        (fd_lookup :: Cpu 60.0 :: copy_cost arg.Arg.size :: page_cache_io arg.Arg.size)
        @ [ Cgroup_charge ]);
    spec ~name:"readv" ~number:19 ~categories:[ Category.File_io ] ~arg_model:Arg.io
      ~doc:"scatter read into multiple buffers" (fun arg ->
        (fd_lookup :: Cpu 150.0 :: page_cache_io arg.Arg.size)
        @ [ copy_cost arg.Arg.size ]);
    spec ~name:"writev" ~number:20 ~categories:[ Category.File_io ] ~arg_model:Arg.io
      ~doc:"gather write from multiple buffers" (fun arg ->
        (fd_lookup :: Cpu 150.0 :: copy_cost arg.Arg.size :: page_cache_io arg.Arg.size)
        @ [ Cgroup_charge ]);
    spec ~name:"preadv" ~number:295 ~categories:[ Category.File_io ] ~arg_model:Arg.io
      ~doc:"positional scatter read" (fun arg ->
        (fd_lookup :: Cpu 180.0 :: page_cache_io arg.Arg.size)
        @ [ copy_cost arg.Arg.size ]);
    spec ~name:"pwritev" ~number:296 ~categories:[ Category.File_io ] ~arg_model:Arg.io
      ~doc:"positional gather write" (fun arg ->
        (fd_lookup :: Cpu 180.0 :: copy_cost arg.Arg.size :: page_cache_io arg.Arg.size)
        @ [ Cgroup_charge ]);
    spec ~name:"lseek" ~number:8 ~categories:[ Category.File_io ]
      ~doc:"reposition a file offset" (fixed (fun () -> [ fd_lookup; Cpu 60.0 ]));
    spec ~name:"fsync" ~number:74 ~categories:[ Category.File_io; Category.Fs_mgmt ]
      ~arg_model:Arg.io ~doc:"flush file data and metadata to disk" (fun arg ->
        [
          fd_lookup;
          Block_io { bytes = max 4096 (min arg.Arg.size 262144); write = true };
          journal_op 900.0;
        ]);
    spec ~name:"fdatasync" ~number:75 ~categories:[ Category.File_io ]
      ~arg_model:Arg.io ~doc:"flush file data to disk" (fun arg ->
        [ fd_lookup; Block_io { bytes = max 4096 (min arg.Arg.size 262144); write = true } ]);
    spec ~name:"sendfile" ~number:40 ~categories:[ Category.File_io ] ~arg_model:Arg.io
      ~doc:"copy between descriptors inside the kernel" (fun arg ->
        (fd_lookup :: fd_lookup :: page_cache_io arg.Arg.size)
        @ [ Cpu (float_of_int arg.Arg.size *. 0.03) ]);
    spec ~name:"splice" ~number:275 ~categories:[ Category.File_io; Category.Ipc ]
      ~arg_model:Arg.io ~doc:"move data between a pipe and a descriptor" (fun arg ->
        (fd_lookup :: Lock (Pipe, h 300.0 0.4) :: page_cache_io (min arg.Arg.size 65536)));
    spec ~name:"tee" ~number:276 ~categories:[ Category.File_io; Category.Ipc ]
      ~arg_model:Arg.io ~doc:"duplicate pipe content without consuming" (fun arg ->
        [ fd_lookup; Lock (Pipe, h 280.0 0.4); Cpu (float_of_int (min arg.Arg.size 65536) *. 0.01) ]);
    spec ~name:"copy_file_range" ~number:326 ~categories:[ Category.File_io ]
      ~arg_model:Arg.io ~doc:"in-kernel file-to-file copy" (fun arg ->
        (fd_lookup :: fd_lookup :: page_cache_io arg.Arg.size)
        @ [ Cpu (float_of_int arg.Arg.size *. 0.04); Cgroup_charge ]);
    spec ~name:"fallocate" ~number:285 ~categories:[ Category.File_io; Category.Fs_mgmt ]
      ~arg_model:Arg.io ~doc:"preallocate file blocks" (fun arg ->
        [
          fd_lookup;
          journalled_inode_op ~inode:500.0 ~journal:600.0;
          Cpu (float_of_int (max 1 (arg.Arg.size / 4096)) *. 20.0);
        ]);
    spec ~name:"ftruncate" ~number:77 ~categories:[ Category.File_io; Category.Fs_mgmt ]
      ~doc:"truncate an open file" (fixed (fun () ->
        [ fd_lookup; journalled_inode_op ~inode:500.0 ~journal:500.0;
          Page_cache_lookup ]));
    spec ~name:"sync_file_range" ~number:277 ~categories:[ Category.File_io ]
      ~arg_model:Arg.io ~doc:"flush a byte range of a file" (fun arg ->
        [ fd_lookup; Block_io { bytes = max 4096 (min arg.Arg.size 131072); write = true } ]);
    spec ~name:"readahead" ~number:187 ~categories:[ Category.File_io ]
      ~arg_model:Arg.io ~doc:"populate the page cache ahead of reads" (fun arg ->
        fd_lookup :: page_cache_io arg.Arg.size);
    spec ~name:"dup" ~number:32 ~categories:[ Category.File_io ]
      ~doc:"duplicate a file descriptor" (fixed (fun () -> [ fd_lookup; Cpu 120.0; Slab_alloc ]));
    spec ~name:"dup2" ~number:33 ~categories:[ Category.File_io ]
      ~doc:"duplicate onto a specific descriptor" (fixed (fun () -> [ fd_lookup; Cpu 150.0 ]));
    spec ~name:"dup3" ~number:292 ~categories:[ Category.File_io ]
      ~doc:"duplicate with flags" (fixed (fun () -> [ fd_lookup; Cpu 160.0 ]));
    spec ~name:"fcntl" ~number:72 ~categories:[ Category.File_io ]
      ~arg_model:(Arg.objected ~max_flags:6 4)
      ~doc:"descriptor control operations" (fun arg ->
        let locking = arg.Arg.flags >= 4 (* F_SETLK-style *) in
        if locking then [ fd_lookup; inode_op 600.0; Cpu 300.0 ]
        else [ fd_lookup; Cpu 140.0 ]);
    spec ~name:"ioctl" ~number:16 ~categories:[ Category.File_io ]
      ~arg_model:(Arg.objected ~max_flags:8 4)
      ~doc:"device-specific control" (fun arg ->
        [ fd_lookup; Cpu (200.0 +. (float_of_int arg.Arg.flags *. 80.0)) ]);
    spec ~name:"poll" ~number:7 ~categories:[ Category.File_io; Category.Ipc ]
      ~arg_model:(Arg.objected ~max_flags:2 8)
      ~doc:"wait for events on descriptors" (fun arg ->
        [ Cpu (250.0 +. (float_of_int arg.Arg.obj *. 90.0)); Sleep (h 4_000.0 0.7); rq_op 220.0 ]);
    spec ~name:"select" ~number:23 ~categories:[ Category.File_io; Category.Ipc ]
      ~doc:"synchronous descriptor multiplexing" (fixed (fun () ->
        [ Cpu 600.0; Sleep (h 4_500.0 0.7); rq_op 220.0 ]));
    spec ~name:"epoll_create1" ~number:291 ~categories:[ Category.File_io ]
      ~doc:"create an epoll instance" (fixed (fun () -> [ Slab_alloc; Cpu 400.0 ]));
    spec ~name:"epoll_ctl" ~number:233 ~categories:[ Category.File_io ]
      ~doc:"add or remove a watched descriptor" (fixed (fun () ->
        [ fd_lookup; Cpu 350.0; Slab_alloc ]));
    spec ~name:"epoll_wait" ~number:232 ~categories:[ Category.File_io; Category.Ipc ]
      ~doc:"wait for epoll events" (fixed (fun () ->
        [ Cpu 300.0; Sleep (h 3_500.0 0.7); rq_op 220.0 ]));
    spec ~name:"eventfd2" ~number:290 ~categories:[ Category.File_io; Category.Ipc ]
      ~doc:"create an event counter descriptor" (fixed (fun () -> [ Slab_alloc; Cpu 280.0 ]));
    spec ~name:"inotify_init1" ~number:294 ~categories:[ Category.File_io ]
      ~doc:"create an inotify instance" (fixed (fun () -> [ Slab_alloc; Cpu 450.0 ]));
    spec ~name:"inotify_add_watch" ~number:254 ~categories:[ Category.File_io; Category.Fs_mgmt ]
      ~arg_model:(Arg.objected 8) ~doc:"watch a path for events" (fixed (fun () ->
        path_walk 2 @ [ inode_op 450.0; Slab_alloc ]));
  ]

(* ====================================================================
   (d) Filesystem management
   ==================================================================== *)

let fs_mgmt_specs =
  [
    spec ~name:"open" ~number:2 ~categories:[ Category.Fs_mgmt ]
      ~arg_model:(Arg.objected ~max_flags:4 16)
      ~doc:"open a path, resolving each component" (fun arg ->
        let creat = arg.Arg.flags = 3 in
        path_walk (2 + (arg.Arg.obj mod 3))
        @ [ Slab_alloc; inode_op 300.0 ]
        @ if creat then [ journal_op 700.0 ] else []);
    spec ~name:"openat" ~number:257 ~categories:[ Category.Fs_mgmt ]
      ~arg_model:(Arg.objected ~max_flags:4 16)
      ~doc:"open relative to a directory descriptor" (fun arg ->
        (fd_lookup :: path_walk (1 + (arg.Arg.obj mod 3)))
        @ [ Slab_alloc; inode_op 300.0 ]);
    spec ~name:"creat" ~number:85 ~categories:[ Category.Fs_mgmt ]
      ~arg_model:(Arg.objected 16) ~doc:"create a regular file" (fixed (fun () ->
        path_walk 2 @ [ Slab_alloc; inode_op 400.0; journal_op 800.0 ]));
    spec ~name:"close" ~number:3 ~categories:[ Category.Fs_mgmt; Category.File_io ]
      ~doc:"close a descriptor (may release the inode)" (fixed (fun () ->
        [ fd_lookup; Cpu 110.0; Rcu_sync ]));
    spec ~name:"stat" ~number:4 ~categories:[ Category.Fs_mgmt ]
      ~arg_model:(Arg.objected 16) ~doc:"stat a path" (fun arg ->
        path_walk (2 + (arg.Arg.obj mod 2)) @ [ Cpu 200.0 ]);
    spec ~name:"fstat" ~number:5 ~categories:[ Category.Fs_mgmt ]
      ~doc:"stat an open descriptor" (fixed (fun () -> [ fd_lookup; Cpu 180.0 ]));
    spec ~name:"lstat" ~number:6 ~categories:[ Category.Fs_mgmt ]
      ~arg_model:(Arg.objected 16) ~doc:"stat without following symlinks" (fun arg ->
        path_walk (2 + (arg.Arg.obj mod 2)) @ [ Cpu 210.0 ]);
    spec ~name:"newfstatat" ~number:262 ~categories:[ Category.Fs_mgmt ]
      ~arg_model:(Arg.objected 16) ~doc:"stat relative to a directory" (fixed (fun () ->
        (fd_lookup :: path_walk 2) @ [ Cpu 200.0 ]));
    spec ~name:"statx" ~number:332 ~categories:[ Category.Fs_mgmt ]
      ~arg_model:(Arg.objected 16) ~doc:"extended file status" (fixed (fun () ->
        (fd_lookup :: path_walk 2) @ [ Cpu 260.0 ]));
    spec ~name:"access" ~number:21 ~categories:[ Category.Fs_mgmt; Category.Perm ]
      ~arg_model:(Arg.objected 16) ~doc:"check path accessibility" (fixed (fun () ->
        path_walk 2 @ [ cred_check; Cpu 120.0 ]));
    spec ~name:"faccessat" ~number:269 ~categories:[ Category.Fs_mgmt; Category.Perm ]
      ~arg_model:(Arg.objected 16) ~doc:"check accessibility relative to a dirfd"
      (fixed (fun () -> (fd_lookup :: path_walk 2) @ [ cred_check; Cpu 120.0 ]));
    spec ~name:"rename" ~number:82 ~categories:[ Category.Fs_mgmt ]
      ~arg_model:(Arg.objected 16)
      ~doc:"rename a path (two lookups, journalled)" (fixed (fun () ->
        path_walk 2 @ path_walk 2
        @ [ namespace_op ~dcache:500.0 ~inode:500.0; journal_op 900.0 ]));
    spec ~name:"renameat2" ~number:316 ~categories:[ Category.Fs_mgmt ]
      ~arg_model:(Arg.objected 16) ~doc:"rename with flags" (fixed (fun () ->
        (fd_lookup :: (path_walk 2 @ path_walk 2))
        @ [ namespace_op ~dcache:500.0 ~inode:500.0; journal_op 900.0 ]));
    spec ~name:"mkdir" ~number:83 ~categories:[ Category.Fs_mgmt ]
      ~arg_model:(Arg.objected 16) ~doc:"create a directory" (fixed (fun () ->
        path_walk 2 @ [ Slab_alloc; inode_op 450.0; journal_op 850.0; Cgroup_charge ]));
    spec ~name:"mkdirat" ~number:258 ~categories:[ Category.Fs_mgmt ]
      ~arg_model:(Arg.objected 16) ~doc:"create a directory relative to a dirfd"
      (fixed (fun () ->
        (fd_lookup :: path_walk 1)
        @ [ Slab_alloc; inode_op 450.0; journal_op 850.0; Cgroup_charge ]));
    spec ~name:"rmdir" ~number:84 ~categories:[ Category.Fs_mgmt ]
      ~arg_model:(Arg.objected 16) ~doc:"remove a directory" (fixed (fun () ->
        path_walk 2 @ [ namespace_op ~dcache:450.0 ~inode:450.0; journal_op 800.0 ]));
    spec ~name:"unlink" ~number:87 ~categories:[ Category.Fs_mgmt ]
      ~arg_model:(Arg.objected 16) ~doc:"remove a file link" (fixed (fun () ->
        path_walk 2
        @ [ namespace_op ~dcache:400.0 ~inode:450.0; journal_op 750.0; Rcu_sync ]));
    spec ~name:"unlinkat" ~number:263 ~categories:[ Category.Fs_mgmt ]
      ~arg_model:(Arg.objected 16) ~doc:"remove relative to a dirfd" (fixed (fun () ->
        (fd_lookup :: path_walk 1)
        @ [ namespace_op ~dcache:400.0 ~inode:450.0; journal_op 750.0 ]));
    spec ~name:"link" ~number:86 ~categories:[ Category.Fs_mgmt ]
      ~arg_model:(Arg.objected 16) ~doc:"create a hard link" (fixed (fun () ->
        path_walk 2 @ path_walk 2 @ [ inode_op 500.0; journal_op 800.0 ]));
    spec ~name:"linkat" ~number:265 ~categories:[ Category.Fs_mgmt ]
      ~arg_model:(Arg.objected 16) ~doc:"hard link relative to dirfds" (fixed (fun () ->
        (fd_lookup :: (path_walk 1 @ path_walk 1)) @ [ inode_op 500.0; journal_op 800.0 ]));
    spec ~name:"symlink" ~number:88 ~categories:[ Category.Fs_mgmt ]
      ~arg_model:(Arg.objected 16) ~doc:"create a symbolic link" (fixed (fun () ->
        path_walk 2 @ [ Slab_alloc; inode_op 450.0; journal_op 800.0 ]));
    spec ~name:"symlinkat" ~number:266 ~categories:[ Category.Fs_mgmt ]
      ~arg_model:(Arg.objected 16) ~doc:"symlink relative to a dirfd" (fixed (fun () ->
        (fd_lookup :: path_walk 1) @ [ Slab_alloc; inode_op 450.0; journal_op 800.0 ]));
    spec ~name:"readlink" ~number:89 ~categories:[ Category.Fs_mgmt ]
      ~arg_model:(Arg.objected 16) ~doc:"read a symlink target" (fixed (fun () ->
        path_walk 2 @ [ Cpu 220.0 ]));
    spec ~name:"readlinkat" ~number:267 ~categories:[ Category.Fs_mgmt ]
      ~arg_model:(Arg.objected 16) ~doc:"readlink relative to a dirfd" (fixed (fun () ->
        (fd_lookup :: path_walk 1) @ [ Cpu 220.0 ]));
    spec ~name:"chdir" ~number:80 ~categories:[ Category.Fs_mgmt ]
      ~arg_model:(Arg.objected 16) ~doc:"change working directory" (fixed (fun () ->
        path_walk 2 @ [ Cpu 150.0 ]));
    spec ~name:"fchdir" ~number:81 ~categories:[ Category.Fs_mgmt ]
      ~doc:"change directory via descriptor" (fixed (fun () -> [ fd_lookup; Cpu 130.0 ]));
    spec ~name:"getcwd" ~number:79 ~categories:[ Category.Fs_mgmt ]
      ~doc:"return the working directory path" (fixed (fun () ->
        [ Lock (Dcache, h 250.0 0.3); Cpu 300.0 ]));
    spec ~name:"getdents64" ~number:217 ~categories:[ Category.Fs_mgmt ]
      ~arg_model:Arg.io ~doc:"read directory entries" (fun arg ->
        (fd_lookup :: inode_op 350.0 :: page_cache_io (min arg.Arg.size 16384))
        @ [ copy_cost (min arg.Arg.size 16384) ]);
    spec ~name:"truncate" ~number:76 ~categories:[ Category.Fs_mgmt; Category.File_io ]
      ~arg_model:(Arg.objected 16) ~doc:"truncate a path" (fixed (fun () ->
        path_walk 2
        @ [ journalled_inode_op ~inode:550.0 ~journal:600.0; Page_cache_lookup ]));
    spec ~name:"statfs" ~number:137 ~categories:[ Category.Fs_mgmt ]
      ~arg_model:(Arg.objected 16) ~doc:"filesystem statistics for a path" (fixed (fun () ->
        path_walk 2 @ [ Read_lock (Sb_umount, h 250.0 0.3); Cpu 300.0 ]));
    spec ~name:"fstatfs" ~number:138 ~categories:[ Category.Fs_mgmt ]
      ~doc:"filesystem statistics via descriptor" (fixed (fun () ->
        [ fd_lookup; Read_lock (Sb_umount, h 250.0 0.3); Cpu 280.0 ]));
    spec ~name:"utimensat" ~number:280 ~categories:[ Category.Fs_mgmt ]
      ~arg_model:(Arg.objected 16) ~doc:"set file timestamps" (fixed (fun () ->
        (fd_lookup :: path_walk 1)
        @ [ journalled_inode_op ~inode:400.0 ~journal:500.0 ]));
    spec ~name:"mount" ~number:165 ~categories:[ Category.Fs_mgmt; Category.Perm ]
      ~doc:"mount a filesystem" (fixed (fun () ->
        path_walk 2
        @ [
            cred_check;
            Write_lock (Sb_umount, h 5_000.0 0.5);
            Slab_alloc;
            journal_op 1_500.0;
            audit_record;
          ]));
    spec ~name:"umount2" ~number:166 ~categories:[ Category.Fs_mgmt; Category.Perm ]
      ~doc:"unmount a filesystem" (fixed (fun () ->
        path_walk 1
        @ [
            cred_check;
            Write_lock (Sb_umount, h 8_000.0 0.5);
            Rcu_sync;
            audit_record;
          ]));
    spec ~name:"sync" ~number:162 ~categories:[ Category.Fs_mgmt; Category.File_io ]
      ~doc:"flush all dirty data" (fixed (fun () ->
        [ journal_op 1_200.0; Block_io { bytes = 131072; write = true } ]));
    spec ~name:"syncfs" ~number:306 ~categories:[ Category.Fs_mgmt; Category.File_io ]
      ~doc:"flush one filesystem" (fixed (fun () ->
        [ fd_lookup; journal_op 1_000.0; Block_io { bytes = 65536; write = true } ]));
    spec ~name:"mknod" ~number:133 ~categories:[ Category.Fs_mgmt ]
      ~arg_model:(Arg.objected 16) ~doc:"create a special file" (fixed (fun () ->
        path_walk 2 @ [ Slab_alloc; inode_op 500.0; journal_op 800.0 ]));
    spec ~name:"flock" ~number:73 ~categories:[ Category.Fs_mgmt; Category.Ipc ]
      ~arg_model:(Arg.objected 16) ~doc:"advisory whole-file lock" (fixed (fun () ->
        [ fd_lookup; inode_op 700.0; Slab_alloc ]));
  ]

(* ====================================================================
   (e) Inter-process communication
   ==================================================================== *)

let ipc_specs =
  [
    spec ~name:"pipe2" ~number:293 ~categories:[ Category.Ipc ]
      ~doc:"create a pipe pair" (fixed (fun () ->
        [ Slab_alloc; Slab_alloc; Page_alloc 0; Cpu 350.0 ]));
    spec ~name:"pipe_write" ~number:1001 ~categories:[ Category.Ipc ]
      ~arg_model:(Arg.sized [| 64; 512; 4096; 65536 |])
      ~doc:"write into a pipe (modeled as distinct from file write)"
      (fun arg ->
        [ fd_lookup; Lock (Pipe, h 300.0 0.4); copy_cost arg.Arg.size; rq_op 250.0 ]);
    spec ~name:"pipe_read" ~number:1000 ~categories:[ Category.Ipc ]
      ~arg_model:(Arg.sized [| 64; 512; 4096; 65536 |])
      ~doc:"read from a pipe" (fun arg ->
        [ fd_lookup; Lock (Pipe, h 280.0 0.4); copy_cost arg.Arg.size ]);
    spec ~name:"socketpair" ~number:53 ~categories:[ Category.Ipc ]
      ~doc:"create a connected socket pair" (fixed (fun () ->
        [ Slab_alloc; Slab_alloc; Cpu 900.0 ]));
    spec ~name:"msgget" ~number:68 ~categories:[ Category.Ipc ]
      ~arg_model:(Arg.objected 8) ~doc:"get a System-V message queue" (fixed (fun () ->
        [ Lock (Msgq_registry, h 350.0 0.4); Slab_alloc ]));
    spec ~name:"msgsnd" ~number:69 ~categories:[ Category.Ipc ]
      ~arg_model:(Arg.sized [| 64; 512; 4096 |])
      ~doc:"send a System-V message" (fun arg ->
        [
          Lock (Msgq_registry, h 200.0 0.3);
          copy_cost arg.Arg.size;
          Slab_alloc;
          rq_op 250.0;
        ]);
    spec ~name:"msgrcv" ~number:70 ~categories:[ Category.Ipc ]
      ~arg_model:(Arg.sized [| 64; 512; 4096 |])
      ~doc:"receive a System-V message" (fun arg ->
        [
          Lock (Msgq_registry, h 220.0 0.3);
          Sleep (h 3_000.0 0.7);
          copy_cost arg.Arg.size;
        ]);
    spec ~name:"msgctl" ~number:71 ~categories:[ Category.Ipc ]
      ~doc:"message-queue control" (fixed (fun () ->
        [ Lock (Msgq_registry, h 400.0 0.4); Cpu 250.0 ]));
    spec ~name:"semget" ~number:64 ~categories:[ Category.Ipc ]
      ~arg_model:(Arg.objected 8) ~doc:"get a semaphore set" (fixed (fun () ->
        [ Lock (Msgq_registry, h 330.0 0.4); Slab_alloc ]));
    spec ~name:"semop" ~number:65 ~categories:[ Category.Ipc ]
      ~arg_model:(Arg.objected 8) ~doc:"semaphore operations" (fixed (fun () ->
        [ Lock (Msgq_registry, h 260.0 0.3); Cpu 200.0; rq_op 230.0 ]));
    spec ~name:"semctl" ~number:66 ~categories:[ Category.Ipc ]
      ~doc:"semaphore control" (fixed (fun () ->
        [ Lock (Msgq_registry, h 380.0 0.4); Cpu 220.0 ]));
    spec ~name:"shmget" ~number:29 ~categories:[ Category.Ipc; Category.Memory ]
      ~arg_model:(Arg.sized [| 65536; 1 lsl 20 |])
      ~doc:"get a shared-memory segment" (fun arg ->
        [
          Lock (Msgq_registry, h 350.0 0.4);
          Page_alloc (if arg.Arg.size > 65536 then 6 else 4);
          Cgroup_charge;
        ]);
    spec ~name:"shmat" ~number:30 ~categories:[ Category.Ipc; Category.Memory ]
      ~doc:"attach a shared-memory segment" (fixed (fun () ->
        [ Lock (Msgq_registry, h 280.0 0.3); Write_lock (Mmap_sem, h 500.0 0.4); Slab_alloc ]));
    spec ~name:"shmdt" ~number:67 ~categories:[ Category.Ipc; Category.Memory ]
      ~doc:"detach a shared-memory segment" (fixed (fun () ->
        [ Write_lock (Mmap_sem, h 500.0 0.4); Tlb_shootdown ]));
    spec ~name:"shmctl" ~number:31 ~categories:[ Category.Ipc ]
      ~doc:"shared-memory control" (fixed (fun () ->
        [ Lock (Msgq_registry, h 380.0 0.4); Cpu 230.0 ]));
    spec ~name:"futex_wait" ~number:202 ~categories:[ Category.Ipc ]
      ~arg_model:(Arg.objected 16) ~doc:"wait on a futex word" (fixed (fun () ->
        [ Lock (Futex_bucket, h 200.0 0.3); Sleep (h 2_500.0 0.8); rq_op 240.0 ]));
    spec ~name:"futex_wake" ~number:1202 ~categories:[ Category.Ipc ]
      ~arg_model:(Arg.objected 16) ~doc:"wake futex waiters" (fixed (fun () ->
        [ Lock (Futex_bucket, h 220.0 0.3); rq_op 260.0 ]));
    spec ~name:"mq_open" ~number:240 ~categories:[ Category.Ipc; Category.Fs_mgmt ]
      ~arg_model:(Arg.objected 8) ~doc:"open a POSIX message queue" (fixed (fun () ->
        path_walk 1 @ [ Slab_alloc; inode_op 400.0 ]));
    spec ~name:"mq_timedsend" ~number:242 ~categories:[ Category.Ipc ]
      ~arg_model:(Arg.sized [| 64; 512; 4096 |])
      ~doc:"send to a POSIX queue" (fun arg ->
        [ fd_lookup; copy_cost arg.Arg.size; Slab_alloc; rq_op 240.0 ]);
    spec ~name:"mq_timedreceive" ~number:243 ~categories:[ Category.Ipc ]
      ~arg_model:(Arg.sized [| 64; 512; 4096 |])
      ~doc:"receive from a POSIX queue" (fun arg ->
        [ fd_lookup; Sleep (h 2_500.0 0.7); copy_cost arg.Arg.size ]);
    spec ~name:"mq_unlink" ~number:241 ~categories:[ Category.Ipc; Category.Fs_mgmt ]
      ~arg_model:(Arg.objected 8) ~doc:"remove a POSIX queue" (fixed (fun () ->
        path_walk 1 @ [ inode_op 450.0; Rcu_sync ]));
    spec ~name:"signalfd4" ~number:289 ~categories:[ Category.Ipc; Category.File_io ]
      ~doc:"signal delivery via descriptor" (fixed (fun () -> [ Slab_alloc; Cpu 320.0 ]));
    spec ~name:"socket" ~number:41 ~categories:[ Category.Ipc ]
      ~doc:"create a socket" (fixed (fun () -> [ Slab_alloc; Slab_alloc; Cpu 700.0; Cgroup_charge ]));
    spec ~name:"bind" ~number:49 ~categories:[ Category.Ipc ]
      ~arg_model:(Arg.objected 8) ~doc:"bind a socket address" (fixed (fun () ->
        [ fd_lookup; Cpu 400.0 ]));
    spec ~name:"listen" ~number:50 ~categories:[ Category.Ipc ]
      ~doc:"mark a socket passive" (fixed (fun () -> [ fd_lookup; Cpu 250.0 ]));
    spec ~name:"accept4" ~number:288 ~categories:[ Category.Ipc ]
      ~doc:"accept a connection" (fixed (fun () ->
        [ fd_lookup; Sleep (h 5_000.0 0.7); Slab_alloc; rq_op 240.0 ]));
    spec ~name:"connect" ~number:42 ~categories:[ Category.Ipc ]
      ~arg_model:(Arg.objected 8) ~doc:"connect a socket (loopback)" (fixed (fun () ->
        [ fd_lookup; Cpu 1_200.0; Slab_alloc; rq_op 260.0 ]));
    spec ~name:"sendto" ~number:44 ~categories:[ Category.Ipc ]
      ~arg_model:(Arg.sized [| 64; 512; 4096; 65536 |])
      ~doc:"send on a socket" (fun arg ->
        [ fd_lookup; copy_cost arg.Arg.size; Slab_alloc; Cpu 500.0; rq_op 250.0 ]);
    spec ~name:"recvfrom" ~number:45 ~categories:[ Category.Ipc ]
      ~arg_model:(Arg.sized [| 64; 512; 4096; 65536 |])
      ~doc:"receive on a socket" (fun arg ->
        [ fd_lookup; Sleep (h 3_000.0 0.7); copy_cost arg.Arg.size; Cpu 450.0 ]);
    spec ~name:"sendmsg" ~number:46 ~categories:[ Category.Ipc ]
      ~arg_model:(Arg.sized [| 64; 512; 4096; 65536 |])
      ~doc:"send with ancillary data" (fun arg ->
        [ fd_lookup; Cpu 250.0; copy_cost arg.Arg.size; Slab_alloc; rq_op 250.0 ]);
    spec ~name:"recvmsg" ~number:47 ~categories:[ Category.Ipc ]
      ~arg_model:(Arg.sized [| 64; 512; 4096; 65536 |])
      ~doc:"receive with ancillary data" (fun arg ->
        [ fd_lookup; Sleep (h 3_200.0 0.7); copy_cost arg.Arg.size; Cpu 480.0 ]);
    spec ~name:"shutdown" ~number:48 ~categories:[ Category.Ipc ]
      ~doc:"shut down a connection" (fixed (fun () -> [ fd_lookup; Cpu 350.0 ]));
    spec ~name:"setsockopt" ~number:54 ~categories:[ Category.Ipc ]
      ~doc:"set a socket option" (fixed (fun () -> [ fd_lookup; Cpu 300.0 ]));
    spec ~name:"getsockopt" ~number:55 ~categories:[ Category.Ipc ]
      ~doc:"read a socket option" (fixed (fun () -> [ fd_lookup; Cpu 260.0 ]));
  ]

(* ====================================================================
   (f) Permission / capability management
   ==================================================================== *)

let perm_specs =
  [
    spec ~name:"chmod" ~number:90 ~categories:[ Category.Fs_mgmt; Category.Perm ]
      ~arg_model:(Arg.objected 16)
      ~doc:"change file mode (the paper's dual-category example)" (fixed (fun () ->
        path_walk 2 @ [ cred_check; inode_op 450.0; journal_op 550.0; audit_record ]));
    spec ~name:"fchmod" ~number:91 ~categories:[ Category.Perm ]
      ~doc:"change mode via descriptor" (fixed (fun () ->
        [ fd_lookup; cred_check; inode_op 420.0; journal_op 500.0; audit_record ]));
    spec ~name:"fchmodat" ~number:268 ~categories:[ Category.Fs_mgmt; Category.Perm ]
      ~arg_model:(Arg.objected 16) ~doc:"change mode relative to a dirfd" (fixed (fun () ->
        (fd_lookup :: path_walk 1)
        @ [ cred_check; inode_op 430.0; journal_op 520.0; audit_record ]));
    spec ~name:"chown" ~number:92 ~categories:[ Category.Fs_mgmt; Category.Perm ]
      ~arg_model:(Arg.objected 16) ~doc:"change file ownership" (fixed (fun () ->
        path_walk 2 @ [ cred_check; inode_op 480.0; journal_op 580.0; audit_record ]));
    spec ~name:"fchown" ~number:93 ~categories:[ Category.Perm ]
      ~doc:"change ownership via descriptor" (fixed (fun () ->
        [ fd_lookup; cred_check; inode_op 450.0; journal_op 540.0; audit_record ]));
    spec ~name:"lchown" ~number:94 ~categories:[ Category.Fs_mgmt; Category.Perm ]
      ~arg_model:(Arg.objected 16) ~doc:"change ownership of a symlink" (fixed (fun () ->
        path_walk 2 @ [ cred_check; inode_op 460.0; journal_op 560.0; audit_record ]));
    spec ~name:"fchownat" ~number:260 ~categories:[ Category.Fs_mgmt; Category.Perm ]
      ~arg_model:(Arg.objected 16) ~doc:"change ownership relative to a dirfd"
      (fixed (fun () ->
        (fd_lookup :: path_walk 1)
        @ [ cred_check; inode_op 460.0; journal_op 550.0; audit_record ]));
    spec ~name:"setuid" ~number:105 ~categories:[ Category.Perm ]
      ~doc:"set the user id (new credentials, RCU-published)" (fixed (fun () ->
        [ Lock (Cred, h 400.0 0.4); Slab_alloc; Rcu_sync; audit_record ]));
    spec ~name:"setgid" ~number:106 ~categories:[ Category.Perm ]
      ~doc:"set the group id" (fixed (fun () ->
        [ Lock (Cred, h 380.0 0.4); Slab_alloc; Rcu_sync; audit_record ]));
    spec ~name:"setreuid" ~number:113 ~categories:[ Category.Perm ]
      ~doc:"set real and effective uid" (fixed (fun () ->
        [ Lock (Cred, h 420.0 0.4); Slab_alloc; Rcu_sync; audit_record ]));
    spec ~name:"setregid" ~number:114 ~categories:[ Category.Perm ]
      ~doc:"set real and effective gid" (fixed (fun () ->
        [ Lock (Cred, h 410.0 0.4); Slab_alloc; Rcu_sync; audit_record ]));
    spec ~name:"setresuid" ~number:117 ~categories:[ Category.Perm ]
      ~doc:"set real, effective and saved uid" (fixed (fun () ->
        [ Lock (Cred, h 430.0 0.4); Slab_alloc; Rcu_sync; audit_record ]));
    spec ~name:"setresgid" ~number:119 ~categories:[ Category.Perm ]
      ~doc:"set real, effective and saved gid" (fixed (fun () ->
        [ Lock (Cred, h 425.0 0.4); Slab_alloc; Rcu_sync; audit_record ]));
    spec ~name:"getuid" ~number:102 ~categories:[ Category.Perm ]
      ~doc:"read the real uid" (fixed (fun () -> [ Cpu 55.0 ]));
    spec ~name:"geteuid" ~number:107 ~categories:[ Category.Perm ]
      ~doc:"read the effective uid" (fixed (fun () -> [ Cpu 55.0 ]));
    spec ~name:"getgid" ~number:104 ~categories:[ Category.Perm ]
      ~doc:"read the real gid" (fixed (fun () -> [ Cpu 55.0 ]));
    spec ~name:"getegid" ~number:108 ~categories:[ Category.Perm ]
      ~doc:"read the effective gid" (fixed (fun () -> [ Cpu 55.0 ]));
    spec ~name:"setgroups" ~number:116 ~categories:[ Category.Perm ]
      ~doc:"set supplementary groups" (fixed (fun () ->
        [ cred_check; Lock (Cred, h 450.0 0.4); Slab_alloc; Rcu_sync; audit_record ]));
    spec ~name:"getgroups" ~number:115 ~categories:[ Category.Perm ]
      ~doc:"read supplementary groups" (fixed (fun () -> [ Cpu 160.0 ]));
    spec ~name:"capget" ~number:125 ~categories:[ Category.Perm ]
      ~doc:"read capability sets" (fixed (fun () -> [ tasklist_op 220.0; Cpu 180.0 ]));
    spec ~name:"capset" ~number:126 ~categories:[ Category.Perm ]
      ~doc:"set capability sets" (fixed (fun () ->
        [ cred_check; Lock (Cred, h 480.0 0.4); Rcu_sync; audit_record ]));
    spec ~name:"umask" ~number:95 ~categories:[ Category.Perm ]
      ~doc:"set the file-creation mask" (fixed (fun () -> [ Cpu 75.0 ]));
    spec ~name:"setfsuid" ~number:122 ~categories:[ Category.Perm ]
      ~doc:"set the filesystem uid" (fixed (fun () ->
        [ Lock (Cred, h 350.0 0.4); Slab_alloc; audit_record ]));
    spec ~name:"setfsgid" ~number:123 ~categories:[ Category.Perm ]
      ~doc:"set the filesystem gid" (fixed (fun () ->
        [ Lock (Cred, h 345.0 0.4); Slab_alloc; audit_record ]));
    spec ~name:"setxattr" ~number:188 ~categories:[ Category.Perm; Category.Fs_mgmt ]
      ~arg_model:(Arg.objected 16) ~doc:"set an extended attribute" (fixed (fun () ->
        path_walk 2 @ [ cred_check; inode_op 550.0; journal_op 650.0 ]));
    spec ~name:"getxattr" ~number:191 ~categories:[ Category.Perm; Category.Fs_mgmt ]
      ~arg_model:(Arg.objected 16) ~doc:"read an extended attribute" (fixed (fun () ->
        path_walk 2 @ [ inode_op 300.0; Cpu 200.0 ]));
    spec ~name:"listxattr" ~number:194 ~categories:[ Category.Perm; Category.Fs_mgmt ]
      ~arg_model:(Arg.objected 16) ~doc:"list extended attributes" (fixed (fun () ->
        path_walk 2 @ [ inode_op 280.0; Cpu 250.0 ]));
    spec ~name:"removexattr" ~number:197 ~categories:[ Category.Perm; Category.Fs_mgmt ]
      ~arg_model:(Arg.objected 16) ~doc:"remove an extended attribute" (fixed (fun () ->
        path_walk 2 @ [ cred_check; inode_op 520.0; journal_op 620.0 ]));
  ]

(* ====================================================================
   Timers, clocks, resource limits and miscellaneous management calls.
   Mostly cheap reads plus a few timer-wheel and rlimit writers; they
   broaden the corpus with low-latency calls the paper's Table 2 counts
   in its sub-microsecond buckets.
   ==================================================================== *)

let misc_specs =
  [
    spec ~name:"clock_gettime" ~number:228 ~categories:[ Category.Process ]
      ~doc:"read a posix clock (vDSO fast path)" (fixed (fun () -> [ Cpu 30.0 ]));
    spec ~name:"gettimeofday" ~number:96 ~categories:[ Category.Process ]
      ~doc:"wall-clock time (vDSO fast path)" (fixed (fun () -> [ Cpu 28.0 ]));
    spec ~name:"time" ~number:201 ~categories:[ Category.Process ]
      ~doc:"seconds since the epoch" (fixed (fun () -> [ Cpu 25.0 ]));
    spec ~name:"clock_getres" ~number:229 ~categories:[ Category.Process ]
      ~doc:"clock resolution" (fixed (fun () -> [ Cpu 60.0 ]));
    spec ~name:"clock_nanosleep" ~number:230 ~categories:[ Category.Process ]
      ~arg_model:(Arg.sized [| 1000; 10_000; 100_000 |])
      ~doc:"sleep against a specific clock" (fun arg ->
        [
          Cpu 350.0;
          Sleep (Dist.shifted (float_of_int arg.Arg.size) (h 2_000.0 0.6));
          rq_op 260.0;
        ]);
    spec ~name:"timerfd_create" ~number:283 ~categories:[ Category.Process; Category.File_io ]
      ~doc:"timer delivered via a descriptor" (fixed (fun () -> [ Slab_alloc; Cpu 320.0 ]));
    spec ~name:"timerfd_settime" ~number:286 ~categories:[ Category.Process ]
      ~doc:"arm a timerfd (timer wheel insertion)" (fixed (fun () ->
        [ fd_lookup; Cpu 280.0; rq_op 200.0 ]));
    spec ~name:"timerfd_gettime" ~number:287 ~categories:[ Category.Process ]
      ~doc:"read a timerfd's remaining time" (fixed (fun () -> [ fd_lookup; Cpu 150.0 ]));
    spec ~name:"setitimer" ~number:38 ~categories:[ Category.Process ]
      ~doc:"arm an interval timer" (fixed (fun () -> [ tasklist_op 250.0; Cpu 200.0 ]));
    spec ~name:"getitimer" ~number:36 ~categories:[ Category.Process ]
      ~doc:"read an interval timer" (fixed (fun () -> [ Cpu 140.0 ]));
    spec ~name:"alarm" ~number:37 ~categories:[ Category.Process ]
      ~doc:"arm the SIGALRM timer" (fixed (fun () -> [ tasklist_op 220.0 ]));
    spec ~name:"pause" ~number:34 ~categories:[ Category.Process; Category.Ipc ]
      ~doc:"wait for any signal" (fixed (fun () ->
        [ Cpu 150.0; Sleep (h 8_000.0 0.8); rq_op 240.0 ]));
    spec ~name:"rt_sigsuspend" ~number:130 ~categories:[ Category.Process; Category.Ipc ]
      ~doc:"atomically unblock and wait for a signal" (fixed (fun () ->
        [ Cpu 200.0; Sleep (h 8_000.0 0.8); rq_op 240.0 ]));
    spec ~name:"getrandom" ~number:318 ~categories:[ Category.Perm ]
      ~arg_model:(Arg.sized [| 16; 256; 4096 |])
      ~doc:"kernel CSPRNG bytes" (fun arg ->
        [ Cpu (150.0 +. (float_of_int arg.Arg.size *. 2.2)) ]);
    spec ~name:"sysinfo" ~number:99 ~categories:[ Category.Process; Category.Memory ]
      ~doc:"system memory and load statistics" (fixed (fun () ->
        [ Lock (Zone, h 180.0 0.3); Cpu 250.0 ]));
    spec ~name:"sched_getcpu" ~number:309 ~categories:[ Category.Process ]
      ~doc:"which CPU the caller runs on (vDSO)" (fixed (fun () -> [ Cpu 22.0 ]));
    spec ~name:"getrlimit" ~number:97 ~categories:[ Category.Process; Category.Perm ]
      ~doc:"read a resource limit" (fixed (fun () -> [ tasklist_op 160.0 ]));
    spec ~name:"setrlimit" ~number:160 ~categories:[ Category.Process; Category.Perm ]
      ~doc:"set a resource limit" (fixed (fun () ->
        [ cred_check; tasklist_op 300.0; audit_record ]));
    spec ~name:"prlimit64" ~number:302 ~categories:[ Category.Process; Category.Perm ]
      ~doc:"read/modify another task's limits" (fixed (fun () ->
        [ cred_check; tasklist_op 320.0 ]));
    spec ~name:"ioprio_set" ~number:251 ~categories:[ Category.Process; Category.File_io ]
      ~doc:"set I/O scheduling priority" (fixed (fun () ->
        [ cred_check; tasklist_op 280.0 ]));
    spec ~name:"ioprio_get" ~number:252 ~categories:[ Category.Process; Category.File_io ]
      ~doc:"read I/O scheduling priority" (fixed (fun () -> [ tasklist_op 170.0 ]));
    spec ~name:"chroot" ~number:161 ~categories:[ Category.Fs_mgmt; Category.Perm ]
      ~arg_model:(Arg.objected 8) ~doc:"change the root directory" (fixed (fun () ->
        path_walk 2 @ [ cred_check; Cpu 250.0; audit_record ]));
    spec ~name:"pivot_root" ~number:155 ~categories:[ Category.Fs_mgmt; Category.Perm ]
      ~doc:"swap the root mount" (fixed (fun () ->
        path_walk 2
        @ [ cred_check; Write_lock (Sb_umount, h 4_000.0 0.5); audit_record ]));
    spec ~name:"sethostname" ~number:170 ~categories:[ Category.Perm ]
      ~doc:"set the host name" (fixed (fun () -> [ cred_check; Cpu 180.0; audit_record ]));
    spec ~name:"fadvise64" ~number:221 ~categories:[ Category.File_io ]
      ~arg_model:Arg.io ~doc:"advise the kernel about file access" (fun arg ->
        fd_lookup :: (if arg.Arg.flags = 1 then page_cache_io (min arg.Arg.size 65536) else [ Cpu 180.0 ]));
    spec ~name:"name_to_handle_at" ~number:303 ~categories:[ Category.Fs_mgmt ]
      ~arg_model:(Arg.objected 8) ~doc:"path to opaque file handle" (fixed (fun () ->
        (fd_lookup :: path_walk 2) @ [ Cpu 260.0 ]));
    spec ~name:"open_by_handle_at" ~number:304 ~categories:[ Category.Fs_mgmt; Category.Perm ]
      ~doc:"open a file by handle (CAP_DAC_READ_SEARCH)" (fixed (fun () ->
        [ fd_lookup; cred_check; inode_op 350.0; Slab_alloc ]));
    spec ~name:"process_vm_readv" ~number:310 ~categories:[ Category.Memory; Category.Ipc ]
      ~arg_model:(Arg.sized [| 4096; 65536 |])
      ~doc:"read another process's memory" (fun arg ->
        [
          cred_check;
          tasklist_op 300.0;
          Read_lock (Mmap_sem, h 400.0 0.3);
          copy_cost arg.Arg.size;
        ]);
    spec ~name:"process_vm_writev" ~number:311 ~categories:[ Category.Memory; Category.Ipc ]
      ~arg_model:(Arg.sized [| 4096; 65536 |])
      ~doc:"write another process's memory" (fun arg ->
        [
          cred_check;
          tasklist_op 320.0;
          Read_lock (Mmap_sem, h 450.0 0.3);
          copy_cost arg.Arg.size;
        ]);
    spec ~name:"kcmp" ~number:312 ~categories:[ Category.Process ]
      ~doc:"compare two processes' kernel resources" (fixed (fun () ->
        [ cred_check; tasklist_op 280.0 ]));
    spec ~name:"seccomp" ~number:317 ~categories:[ Category.Perm; Category.Process ]
      ~doc:"install a syscall filter" (fixed (fun () ->
        [ cred_check; Slab_alloc; tasklist_op 350.0; Rcu_sync ]));
    spec ~name:"membarrier" ~number:324 ~categories:[ Category.Memory; Category.Process ]
      ~doc:"memory barrier across the process's CPUs" (fixed (fun () ->
        [ Cpu 200.0; Rcu_sync ]));
    spec ~name:"userfaultfd" ~number:323 ~categories:[ Category.Memory; Category.File_io ]
      ~doc:"user-space page-fault handling descriptor" (fixed (fun () ->
        [ Slab_alloc; Write_lock (Mmap_sem, h 400.0 0.4); Cpu 500.0 ]));
  ]

(* Eager validation at table-build time: a duplicate name would make
   [Syscalls.by_name] ambiguous, a duplicate number used to be silently
   last-wins in [Syscalls.by_number], and an empty category list would
   make the call invisible to the specializer's machinery pruning.  All
   three are table-authoring mistakes; fail loudly here, with the
   offending entry named, rather than misbehave downstream. *)
let validate specs =
  let names = Hashtbl.create 256 in
  let numbers = Hashtbl.create 256 in
  List.iter
    (fun (s : Spec.t) ->
      if s.Spec.categories = [] then
        invalid_arg
          (Printf.sprintf "Table.validate: syscall %S has no categories"
             s.Spec.name);
      (match Hashtbl.find_opt names s.Spec.name with
      | Some () ->
          invalid_arg
            (Printf.sprintf "Table.validate: duplicate syscall name %S"
               s.Spec.name)
      | None -> Hashtbl.add names s.Spec.name ());
      match Hashtbl.find_opt numbers s.Spec.number with
      | Some other ->
          invalid_arg
            (Printf.sprintf
               "Table.validate: syscall number %d used by both %S and %S"
               s.Spec.number other s.Spec.name)
      | None -> Hashtbl.add numbers s.Spec.number s.Spec.name)
    specs;
  specs

let specs =
  validate
    (process_specs @ memory_specs @ file_io_specs @ fs_mgmt_specs @ ipc_specs
   @ perm_specs @ misc_specs)
