// Fixture: every lock-discipline violation the lock-order rule must
// catch. Every lock is a leaf: no guard may be live when another lock
// is taken or a transport call is made.
fn inverted(s: &Store) {
    let pins = s.pins.lock();
    let inner = s.inner.read(); // line 6: lock-order (nested)
    drop(inner);
    drop(pins);
}

fn reacquired(s: &Store) {
    let first = s.pins.lock();
    let second = s.pins.lock(); // line 13: lock-order (self-deadlock)
}

fn ordered(s: &Store) {
    let inner = s.inner.read();
    let pins = s.pins.lock(); // line 18: lock-order (nested)
    let map = s.map.write(); // line 19: lock-order (nested)
}

fn rpc_under_guard(s: &Store, transport: &mut T) {
    let inner = s.inner.write();
    transport.call(request, serve); // line 24: lock-order (guard across transport)
}
