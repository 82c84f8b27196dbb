// Fixture: lock usage the lock-order rule must stay silent on —
// manifest order respected, guards released before re-ordering or
// transport calls, ignored receivers, and lock-shaped I/O calls.
fn ordered(s: &Store) {
    let inner = s.inner.read();
    let pins = s.pins.lock();
    let map = s.map.write();
}

fn released_then_reordered(s: &Store) {
    let pins = s.pins.lock();
    drop(pins);
    let inner = s.inner.read();
}

fn scoped(s: &Store) {
    {
        let pins = s.pins.lock();
    }
    let inner = s.inner.read();
}

fn rpc_after_release(s: &Store, transport: &mut T) {
    let epoch = { s.inner.read().epoch() };
    transport.call(epoch, serve);
}

fn not_locks(s: &Store, vfs: &mut Vfs) {
    let out = stdout().lock();
    let data = vfs.read(path);
    vfs.write(path, data);
}

fn justified(s: &Store) {
    let pins = s.pins.lock();
    // lint:allow(lock-order): seeded inversion for a deadlock test.
    let inner = s.inner.read();
}
