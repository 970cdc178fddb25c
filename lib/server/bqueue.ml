type 'a t = {
  q : 'a Queue.t;
  mutable closed : bool;
  m : Mutex.t;
  not_empty : Condition.t;
}

let create () =
  {
    q = Queue.create ();
    closed = false;
    m = Mutex.create ();
    not_empty = Condition.create ();
  }

let with_lock t f =
  Mutex.lock t.m;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.m) f

let try_push t x =
  with_lock t (fun () ->
      if t.closed then `Closed
      else begin
        Queue.push x t.q;
        Condition.signal t.not_empty;
        `Ok
      end)

let pop t =
  with_lock t (fun () ->
      let rec wait () =
        match Queue.take_opt t.q with
        | Some _ as x -> x
        | None ->
            if t.closed then None
            else begin
              Condition.wait t.not_empty t.m;
              wait ()
            end
      in
      wait ())

let close t =
  with_lock t (fun () ->
      t.closed <- true;
      Condition.broadcast t.not_empty)

let length t = with_lock t (fun () -> Queue.length t.q)
