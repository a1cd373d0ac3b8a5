// Clean counterpart: the RAII helper, a method that happens to share
// the name, the name inside strings and comments, and one excused site.

use pitract_core::tempdir::TempDir;

pub struct Config;

impl Config {
    pub fn temp_dir(&self) -> &'static str {
        "temp_dir()"
    }
}

pub fn scratch(config: &Config) -> TempDir {
    // std::env::temp_dir() is what TempDir wraps.
    let _ = config.temp_dir();
    TempDir::new("clean")
}

pub fn excused() -> std::path::PathBuf {
    // lint:allow(no-bare-temp-dir): this fixture stands for the helper itself
    std::env::temp_dir()
}
