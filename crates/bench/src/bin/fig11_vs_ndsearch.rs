fn main() {
    reis_bench::figures::fig11_vs_ndsearch().print();
}
