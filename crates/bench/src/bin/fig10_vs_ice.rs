fn main() {
    reis_bench::figures::fig10_vs_ice().print();
}
