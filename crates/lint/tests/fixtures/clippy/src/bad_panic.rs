// Every panicking construct the panic-family lints must catch.
pub enum Kind {
    File,
    Directory,
    Symlink,
    Device,
}

pub fn appraise(digest: Option<u64>, expected: Result<u64, String>, kind: Kind) -> bool {
    let digest = digest.unwrap(); // line 10
    let expected = expected.expect("path is allowed"); // line 11
    if digest != expected {
        panic!("digest mismatch"); // line 13
    }
    let fallback = Option::unwrap(Some(digest)); // line 15: a path call
    match kind {
        Kind::File => fallback == expected,
        Kind::Directory => unreachable!("directories are never measured"), // line 18
        Kind::Symlink => todo!(),                                          // line 19
        Kind::Device => unimplemented!("device nodes"),                    // line 20
    }
}
